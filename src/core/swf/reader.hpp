// SWF reader. "The file format is easy to parse and use: while it is a
// text file ... all data is in integers" — the reader enforces exactly
// that, producing a diagnostic (not a crash, not a silent coercion) for
// every malformed line.
//
// One grammar, two entry points: read_swf_file/read_swf_string map the
// whole input and parse it in a single fused pass (O(file) memory);
// StreamReader (stream_reader.hpp) pulls one line at a time through
// scan_swf_line in O(1) memory. Both fast paths accept only lines made
// of plain decimal fields and hand anything unusual to
// parse_record_line, which owns every verdict and every diagnostic.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/swf/trace.hpp"

namespace pjsb::swf {

/// A parse-level problem, attributed to a physical line.
struct ParseError {
  std::size_t line = 0;       ///< 1-based physical line number
  std::string message;

  bool operator==(const ParseError&) const = default;
};

/// Result of reading a stream: the trace, plus any lines that could not
/// be parsed. In strict mode parsing stops at the first error.
struct ReadResult {
  Trace trace;
  std::vector<ParseError> errors;
  bool ok() const { return errors.empty(); }
};

struct ReaderOptions {
  /// Stop at the first malformed line instead of skipping it.
  bool strict = false;
  /// Accept lines with more than 18 fields by ignoring the excess
  /// (some archive tools append annotations). Lines with fewer than 18
  /// fields are always errors.
  bool allow_extra_fields = false;
};

/// Parse one 18-field record line (no comments, already trimmed).
/// Returns an error message, or an empty string on success. This is
/// the grammar's authority: every scanner defers to it for any line it
/// does not recognize, so accept/reject verdicts and messages agree.
std::string parse_record_line(std::string_view line, bool allow_extra,
                              JobRecord& out);

/// What one physical line turned out to be.
enum class LineKind { kBlank, kComment, kRecord, kError };

struct LineScan {
  LineKind kind = LineKind::kBlank;
  /// kComment: body after the ';' (view into the input line).
  std::string_view comment;
  /// kError: diagnostic, byte-identical to parse_record_line's.
  std::string error;
};

/// Classify and parse one physical line (newline already stripped, not
/// yet trimmed). The common all-digits case is a single pass over the
/// bytes; anything else falls back to parse_record_line.
LineScan scan_swf_line(std::string_view raw, bool allow_extra,
                       JobRecord& out);

/// Parse an SWF document held in memory: every record (partials
/// included), every diagnostic.
ReadResult read_swf_string(const std::string& text,
                           const ReaderOptions& options = {});

/// Map and parse a file from disk (pipes fall back to a read() slurp);
/// adds a line-0 error if it cannot be opened.
ReadResult read_swf_file(const std::string& path,
                         const ReaderOptions& options = {});

}  // namespace pjsb::swf
