// StreamReader: constant-memory, single-pass SWF ingestion.
//
// The in-memory reader (reader.hpp) materializes the whole trace before
// anything can run, so trace size — not simulator speed — becomes the
// scale ceiling. StreamReader parses the same grammar (every line goes
// through scan_swf_line, as in read_swf_file) but holds only one I/O
// chunk and one record at a time, so a multi-GB archive log replays in
// O(1) memory.
//
// Layout handled:
//   * header comment block (`;Label: Value`), parsed eagerly at
//     construction so header() is complete before the first next();
//   * comments after the first record (preserved, bounded);
//   * checkpoint/partial lines (status 2-4), skipped with a counter —
//     JobSource yields whole-job summaries only;
//   * malformed lines: recorded with their 1-based physical line number
//     (bounded storage, exact total count) and skipped, or fatal in
//     strict mode;
//   * a truncated final line (no trailing newline) still parses.
//
// With `prefetch = true` a background thread reads and parses ahead,
// handing batches of records across a bounded queue — I/O and parsing
// overlap simulation. Error/comment accounting then reflects the
// records consumed so far and is complete once next() returns nullopt.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/swf/job_source.hpp"
#include "core/swf/reader.hpp"

namespace pjsb::swf {

struct StreamReaderOptions {
  /// Stop at the first malformed line instead of skipping it.
  bool strict = false;
  /// Accept lines with more than 18 fields by ignoring the excess.
  bool allow_extra_fields = false;
  /// I/O chunk size; the only O(bytes) allocation the reader makes.
  std::size_t chunk_bytes = std::size_t(1) << 20;
  /// Keep at most this many ParseErrors (the total count stays exact).
  std::size_t max_stored_errors = 64;
  /// Parse ahead on a background thread.
  bool prefetch = false;
  /// Records per prefetch batch and max batches in flight; the memory
  /// bound in prefetch mode is chunk_bytes + batch * (depth + 2) records.
  std::size_t prefetch_batch = 1024;
  std::size_t prefetch_depth = 4;
};

class StreamReader final : public JobSource {
 public:
  /// Open a file. Failure to open is not a throw: the source is empty,
  /// ok() is false and errors() holds a line-0 diagnostic, mirroring
  /// read_swf_file.
  explicit StreamReader(const std::string& path,
                        const StreamReaderOptions& options = {});
  /// Read from an owned stream (tests, pipes).
  StreamReader(std::unique_ptr<std::istream> in, std::string label,
               const StreamReaderOptions& options = {});
  ~StreamReader() override;

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  std::optional<JobRecord> next() override;
  const TraceHeader& header() const override { return header_; }
  std::string label() const override { return label_; }

  /// True while the stream opened and no parse error has surfaced.
  bool ok() const { return !open_failed_ && error_count_ == 0; }
  bool open_failed() const { return open_failed_; }
  /// First max_stored_errors diagnostics, in line order.
  const std::vector<ParseError>& errors() const { return errors_; }
  /// Exact total, including diagnostics beyond the storage bound.
  std::size_t error_count() const { return error_count_; }
  std::size_t records_returned() const { return records_returned_; }
  /// Checkpoint/partial (status 2-4) lines skipped.
  std::size_t partials_skipped() const { return partials_skipped_; }
  /// Physical lines consumed so far.
  std::size_t lines_read() const { return line_no_; }

 private:
  /// One parsed unit handed from the producer side to the consumer.
  struct Batch {
    std::vector<JobRecord> records;
    std::vector<ParseError> errors;
    std::vector<std::string> comments;  ///< post-record comments
    std::size_t partials = 0;
    std::size_t lines = 0;
    bool last = false;
  };

  /// Read one physical line (without its newline) from the chunked
  /// stream. The view points into chunk_ (or carry_ when the line
  /// spans a chunk refill) and is valid until the next call. Returns
  /// false at end of input.
  bool next_line(std::string_view& line);
  /// Synchronously parse until one summary record is found; accounting
  /// goes into `sink`. Returns nullopt at end of input (or after an
  /// error in strict mode).
  std::optional<JobRecord> parse_next(Batch& sink);
  void absorb(Batch& batch);
  void start_prefetch();
  void read_header();

  StreamReaderOptions options_;
  std::unique_ptr<std::istream> owned_in_;
  std::istream* in_ = nullptr;
  std::string label_;
  TraceHeader header_;
  bool open_failed_ = false;

  // Chunked line scanning (producer side once prefetching).
  std::string chunk_;
  std::string carry_;  ///< spill for lines that span a chunk refill
  std::size_t chunk_pos_ = 0;
  bool input_done_ = false;
  std::size_t producer_line_no_ = 0;
  bool stop_parsing_ = false;  ///< strict mode tripped
  /// First data line, found while reading the header block.
  std::string pending_first_line_;
  bool has_pending_first_line_ = false;

  // Consumer-side accounting.
  std::vector<ParseError> errors_;
  std::size_t error_count_ = 0;
  std::size_t records_returned_ = 0;
  std::size_t partials_skipped_ = 0;
  std::size_t line_no_ = 0;
  std::size_t comments_stored_ = 0;

  // Synchronous mode: records flow straight through sync_batch_.
  Batch sync_batch_;

  // Prefetch mode.
  std::thread producer_;
  std::mutex mutex_;
  std::condition_variable can_produce_;
  std::condition_variable can_consume_;
  std::deque<Batch> queue_;
  bool producer_done_ = false;
  bool shutdown_ = false;
  Batch current_;
  std::size_t current_pos_ = 0;
  bool exhausted_ = false;
};

}  // namespace pjsb::swf
