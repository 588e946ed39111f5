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
    fail_open("cannot open file: " + path);
    return;
  }
  in_ = std::move(file);
  read_header();
}

StreamReader::StreamReader(std::unique_ptr<std::istream> in, std::string label,
                           const StreamReaderOptions& options)
    : options_(options), in_(std::move(in)), label_(std::move(label)) {
  if (!in_) {
    fail_open("null input stream");
    return;
  }
  read_header();
}

void StreamReader::fail_open(std::string message) {
  open_failed_ = true;
  errors_.push_back({0, std::move(message)});
  error_count_ = 1;
  done_ = true;
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
  // The first data line is stashed for next() to re-consume.
  std::string_view line;
  while (next_line(line)) {
    const auto trimmed = util::trim(line);
    if (!trimmed.empty() && trimmed.front() != ';') {
      // next() counts this line when it re-consumes it.
      pending_first_line_.assign(line);
      has_pending_first_line_ = true;
      return;
    }
    ++line_no_;
    if (!trimmed.empty()) {
      absorb_header_line(header_, std::string(trimmed.substr(1)));
    }
  }
}

std::optional<JobRecord> StreamReader::next() {
  while (!done_) {
    std::string_view line;
    if (has_pending_first_line_) {
      line = pending_first_line_;
      has_pending_first_line_ = false;
    } else if (!next_line(line)) {
      done_ = true;
      break;
    }
    ++line_no_;
    JobRecord record;
    LineScan scan = scan_swf_line(line, options_.allow_extra_fields, record);
    switch (scan.kind) {
      case LineKind::kBlank:
        continue;
      case LineKind::kComment:
        if (comments_stored_ < kMaxStoredComments) {
          header_.extra_comments.emplace_back(scan.comment);
          ++comments_stored_;
        }
        continue;
      case LineKind::kError:
        if (errors_.size() < kMaxStoredErrors) {
          errors_.push_back({line_no_, std::move(scan.error)});
        }
        ++error_count_;
        done_ = options_.strict;
        continue;
      case LineKind::kRecord:
        if (!record.is_summary()) {
          ++partials_skipped_;
          continue;
        }
        ++records_returned_;
        return record;
    }
  }
  return std::nullopt;
}

}  // namespace pjsb::swf
