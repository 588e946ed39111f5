#include "core/swf/stream_reader.hpp"

#include <cstring>
#include <fstream>

#include "util/string_util.hpp"

namespace pjsb::swf {

namespace {

/// Comments kept after the header block before we start counting only.
constexpr std::size_t kMaxStoredComments = 256;

}  // namespace

StreamReader::StreamReader(const std::string& path,
                           const StreamReaderOptions& options)
    : options_(options), label_("trace:" + path) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) {
    open_failed_ = true;
    errors_.push_back({0, "cannot open file: " + path});
    error_count_ = 1;
    input_done_ = true;
    exhausted_ = true;
    return;
  }
  owned_in_ = std::move(file);
  in_ = owned_in_.get();
  read_header();
  if (options_.prefetch) start_prefetch();
}

StreamReader::StreamReader(std::unique_ptr<std::istream> in, std::string label,
                           const StreamReaderOptions& options)
    : options_(options), owned_in_(std::move(in)), label_(std::move(label)) {
  if (!owned_in_) {
    open_failed_ = true;
    errors_.push_back({0, "null input stream"});
    error_count_ = 1;
    input_done_ = true;
    exhausted_ = true;
    return;
  }
  in_ = owned_in_.get();
  read_header();
  if (options_.prefetch) start_prefetch();
}

StreamReader::~StreamReader() {
  if (producer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    can_produce_.notify_all();
    producer_.join();
  }
}

bool StreamReader::next_line(std::string_view& line) {
  carry_.clear();
  for (;;) {
    if (chunk_pos_ < chunk_.size()) {
      const char* base = chunk_.data();
      const void* nl = std::memchr(base + chunk_pos_, '\n',
                                   chunk_.size() - chunk_pos_);
      if (nl) {
        const auto end = std::size_t(static_cast<const char*>(nl) - base);
        if (carry_.empty()) {
          // Common case: the whole line sits in the current chunk —
          // hand out a view, no copy.
          line = std::string_view(base + chunk_pos_, end - chunk_pos_);
        } else {
          carry_.append(base + chunk_pos_, end - chunk_pos_);
          line = carry_;
        }
        chunk_pos_ = end + 1;
        return true;
      }
      carry_.append(base + chunk_pos_, chunk_.size() - chunk_pos_);
      chunk_pos_ = chunk_.size();
    }
    if (input_done_) {  // truncated final line
      line = carry_;
      return !carry_.empty();
    }
    chunk_.resize(options_.chunk_bytes);
    in_->read(chunk_.data(), std::streamsize(options_.chunk_bytes));
    chunk_.resize(std::size_t(in_->gcount()));
    chunk_pos_ = 0;
    if (chunk_.empty()) {
      input_done_ = true;
      line = carry_;
      return !carry_.empty();
    }
  }
}

void StreamReader::read_header() {
  // The header block is every `;` comment before the first non-comment
  // line ("the beginning of every file contains several such lines").
  // The first data line is stashed for parse_next to re-consume.
  std::string_view line;
  while (next_line(line)) {
    ++producer_line_no_;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == ';') {
      absorb_header_line(header_, std::string(trimmed.substr(1)));
      continue;
    }
    --producer_line_no_;  // parse_next re-counts the stashed line
    pending_first_line_.assign(line);
    has_pending_first_line_ = true;
    break;
  }
  line_no_ = producer_line_no_;  // header lines are already consumed
}

std::optional<JobRecord> StreamReader::parse_next(Batch& sink) {
  if (stop_parsing_) return std::nullopt;
  for (;;) {
    std::string_view line;
    if (has_pending_first_line_) {
      line = pending_first_line_;
      has_pending_first_line_ = false;
    } else if (!next_line(line)) {
      return std::nullopt;
    }
    ++producer_line_no_;
    ++sink.lines;
    JobRecord record;
    LineScan scan =
        scan_swf_line(line, options_.allow_extra_fields, record);
    switch (scan.kind) {
      case LineKind::kBlank:
        continue;
      case LineKind::kComment:
        sink.comments.emplace_back(scan.comment);
        continue;
      case LineKind::kError:
        sink.errors.push_back({producer_line_no_, std::move(scan.error)});
        if (options_.strict) {
          stop_parsing_ = true;
          return std::nullopt;
        }
        continue;
      case LineKind::kRecord:
        if (!record.is_summary()) {
          ++sink.partials;
          continue;
        }
        return record;
    }
  }
}

void StreamReader::absorb(Batch& batch) {
  for (auto& e : batch.errors) {
    if (errors_.size() < options_.max_stored_errors) {
      errors_.push_back(std::move(e));
    }
  }
  error_count_ += batch.errors.size();
  partials_skipped_ += batch.partials;
  line_no_ += batch.lines;
  for (auto& c : batch.comments) {
    if (comments_stored_ < kMaxStoredComments) {
      header_.extra_comments.push_back(std::move(c));
      ++comments_stored_;
    }
  }
  batch.errors.clear();
  batch.comments.clear();
  batch.partials = 0;
  batch.lines = 0;
}

void StreamReader::start_prefetch() {
  producer_ = std::thread([this] {
    for (;;) {
      Batch batch;
      batch.records.reserve(options_.prefetch_batch);
      while (batch.records.size() < options_.prefetch_batch) {
        auto rec = parse_next(batch);
        if (!rec) {
          batch.last = true;
          break;
        }
        batch.records.push_back(*rec);
      }
      std::unique_lock<std::mutex> lock(mutex_);
      can_produce_.wait(lock, [this] {
        return shutdown_ || queue_.size() < options_.prefetch_depth;
      });
      if (shutdown_) return;
      const bool last = batch.last;
      queue_.push_back(std::move(batch));
      lock.unlock();
      can_consume_.notify_one();
      if (last) return;
    }
  });
}

std::optional<JobRecord> StreamReader::next() {
  if (exhausted_) return std::nullopt;

  if (!options_.prefetch) {
    auto rec = parse_next(sync_batch_);
    absorb(sync_batch_);
    if (!rec) {
      exhausted_ = true;
      return std::nullopt;
    }
    ++records_returned_;
    return rec;
  }

  while (current_pos_ >= current_.records.size()) {
    if (current_.last) {
      exhausted_ = true;
      return std::nullopt;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    can_consume_.wait(lock, [this] { return !queue_.empty(); });
    current_ = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    can_produce_.notify_one();
    current_pos_ = 0;
    absorb(current_);
  }
  ++records_returned_;
  return current_.records[current_pos_++];
}

}  // namespace pjsb::swf
