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
// Parsing is synchronous: next() scans lines until it finds a summary
// record, so the error/comment accounting always covers exactly the
// input consumed so far.
#pragma once

#include <cstddef>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
};

class StreamReader final : public JobSource {
 public:
  /// ParseErrors kept in errors(); error_count() stays exact beyond it.
  static constexpr std::size_t kMaxStoredErrors = 64;

  /// Open a file. Failure to open is not a throw: the source is empty,
  /// ok() is false and errors() holds a line-0 diagnostic, mirroring
  /// read_swf_file.
  explicit StreamReader(const std::string& path,
                        const StreamReaderOptions& options = {});
  /// Read from an owned stream (tests, pipes).
  StreamReader(std::unique_ptr<std::istream> in, std::string label,
               const StreamReaderOptions& options = {});

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  std::optional<JobRecord> next() override;
  const TraceHeader& header() const override { return header_; }
  std::string label() const override { return label_; }

  /// True while the stream opened and no parse error has surfaced.
  bool ok() const { return !open_failed_ && error_count_ == 0; }
  bool open_failed() const { return open_failed_; }
  /// First kMaxStoredErrors diagnostics, in line order.
  const std::vector<ParseError>& errors() const { return errors_; }
  /// Exact total, including diagnostics beyond the storage bound.
  std::size_t error_count() const { return error_count_; }
  std::size_t records_returned() const { return records_returned_; }
  /// Checkpoint/partial (status 2-4) lines skipped.
  std::size_t partials_skipped() const { return partials_skipped_; }
  /// Physical lines consumed so far.
  std::size_t lines_read() const { return line_no_; }

 private:
  /// Read one physical line (without its newline) from the chunked
  /// stream. The view points into chunk_ (or carry_ when the line
  /// spans a chunk refill) and is valid until the next call. Returns
  /// false at end of input.
  bool next_line(std::string_view& line);
  void read_header();
  void fail_open(std::string message);

  StreamReaderOptions options_;
  std::unique_ptr<std::istream> in_;
  std::string label_;
  TraceHeader header_;
  bool open_failed_ = false;

  // Chunked line scanning.
  std::string chunk_;
  std::string carry_;  ///< spill for lines that span a chunk refill
  std::size_t chunk_pos_ = 0;
  bool input_done_ = false;
  /// First data line, found while reading the header block.
  std::string pending_first_line_;
  bool has_pending_first_line_ = false;
  /// End of input reached, strict mode tripped, or the open failed.
  bool done_ = false;

  // Accounting.
  std::vector<ParseError> errors_;
  std::size_t error_count_ = 0;
  std::size_t records_returned_ = 0;
  std::size_t partials_skipped_ = 0;
  std::size_t line_no_ = 0;
  std::size_t comments_stored_ = 0;
};

}  // namespace pjsb::swf
