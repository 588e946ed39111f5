#include "core/swf/reader.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "util/mmap_file.hpp"
#include "util/string_util.hpp"

namespace pjsb::swf {

using pjsb::util::parse_i64;
using pjsb::util::split_ws;

namespace {

/// Below this size the record reserve is a bytes-per-record guess;
/// above it, an exact newline count (one memchr pass) is cheaper than
/// growing or over-reserving a large buffer.
constexpr std::size_t kExactReserveMin = std::size_t(256) << 10;
/// Rough bytes-per-record guess for small inputs.
constexpr std::size_t kBytesPerRecordGuess = 48;

/// Prepare a freshly reserved record buffer for bulk writes. A 1M-job
/// parse materializes ~144 MB of records; demand-faulted 4 KB pages
/// put ~35k page-fault traps on the critical path — a third of the
/// parse time. MADV_HUGEPAGE asks for 2 MB pages where THP is
/// available; MADV_POPULATE_WRITE (Linux 5.14+) prefaults the whole
/// range in one syscall either way. Both are advisory — on kernels
/// without them the parse is merely demand-faulted, not wrong.
void prefault_buffer(void* data, std::size_t bytes) {
#ifdef __linux__
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kMinBytes = std::size_t(8) << 20;
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t aligned = (addr + kPage - 1) & ~(kPage - 1);
  const std::size_t skipped = std::size_t(aligned - addr);
  if (bytes < kMinBytes + skipped) return;
  void* base = reinterpret_cast<void*>(aligned);
  const std::size_t len = bytes - skipped;
#ifdef MADV_HUGEPAGE
  ::madvise(base, len, MADV_HUGEPAGE);
#endif
#ifdef MADV_POPULATE_WRITE
  ::madvise(base, len, MADV_POPULATE_WRITE);
#endif
#else
  (void)data;
  (void)bytes;
#endif
}

/// Newline count, memchr-paced — sizes the record reserve exactly
/// instead of over-reserving from a bytes-per-record guess.
std::size_t count_newlines(std::string_view text) {
  std::size_t n = 0;
  const char* q = text.data();
  const char* const qe = q + text.size();
  while (q < qe) {
    const void* hit = std::memchr(q, '\n', std::size_t(qe - q));
    if (!hit) break;
    ++n;
    q = static_cast<const char*>(hit) + 1;
  }
  return n;
}

/// The fused scanner parses a line into int64 values[18] in SWF field
/// order and commits them to a JobRecord with ONE memcpy. That is only
/// sound because JobRecord lays its 18 fields out contiguously in
/// exactly that order (Status is int64-backed and values[10] is
/// range-checked to the enum's domain before the copy); these asserts
/// pin the layout so a reordered field breaks the build, not the data.
static_assert(sizeof(JobRecord) == kFieldCount * sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<JobRecord>);
static_assert(offsetof(JobRecord, job_number) == 0 * 8 &&
              offsetof(JobRecord, submit_time) == 1 * 8 &&
              offsetof(JobRecord, wait_time) == 2 * 8 &&
              offsetof(JobRecord, run_time) == 3 * 8 &&
              offsetof(JobRecord, allocated_procs) == 4 * 8 &&
              offsetof(JobRecord, avg_cpu_time) == 5 * 8 &&
              offsetof(JobRecord, used_memory_kb) == 6 * 8 &&
              offsetof(JobRecord, requested_procs) == 7 * 8 &&
              offsetof(JobRecord, requested_time) == 8 * 8 &&
              offsetof(JobRecord, requested_memory_kb) == 9 * 8 &&
              offsetof(JobRecord, status) == 10 * 8 &&
              offsetof(JobRecord, user_id) == 11 * 8 &&
              offsetof(JobRecord, group_id) == 12 * 8 &&
              offsetof(JobRecord, executable_id) == 13 * 8 &&
              offsetof(JobRecord, queue_id) == 14 * 8 &&
              offsetof(JobRecord, partition_id) == 15 * 8 &&
              offsetof(JobRecord, preceding_job) == 16 * 8 &&
              offsetof(JobRecord, think_time) == 17 * 8);
static_assert(std::is_same_v<std::underlying_type_t<Status>, std::int64_t>);

/// The whole-document scanner behind read_swf_file/read_swf_string.
ReadResult parse_buffer(std::string_view text, const ReaderOptions& options) {
  ReadResult result;
  auto& records = result.trace.records;
  auto& header = result.trace.header;
  // Exact-size the reserve: one record per line is the ceiling (+1
  // for an unterminated tail). Counting newlines costs one streaming
  // memchr pass; growing or over-reserving costs far more in faults.
  const std::size_t guess = text.size() > kExactReserveMin
                                ? count_newlines(text) + 1
                                : text.size() / kBytesPerRecordGuess + 1;
  records.reserve(guess);
  prefault_buffer(records.data(), guess * sizeof(JobRecord));
  const char* p = text.data();
  const char* const end = p + text.size();
  // Split the input at its last '\n': every line in [p, scan_end) is
  // newline-terminated, so the fused loop below can use '\n' as a
  // sentinel and skip per-character bounds checks entirely. The
  // unterminated tail (at most one line, usually empty) replays
  // through the shared scanner.
  const char* scan_end = end;
  while (scan_end > p && scan_end[-1] != '\n') --scan_end;
  std::size_t line_no = 0;
  // The header block is every comment before the first record or
  // error line ("the beginning of every file contains several such
  // lines"); later comments are kept as extras.
  bool in_header = true;
  // Any line the fast path rejects — comment, CR, junk byte, overlong
  // token, field-count or status problem — replays wholesale through
  // scan_swf_line, whose legacy fallback owns every verdict and every
  // diagnostic byte. Returns true when strict mode stops the parse.
  const auto slow_line = [&](std::string_view line) {
    records.emplace_back();
    LineScan scan =
        scan_swf_line(line, options.allow_extra_fields, records.back());
    switch (scan.kind) {
      case LineKind::kBlank:
        records.pop_back();
        return false;
      case LineKind::kComment:
        records.pop_back();
        if (in_header) {
          absorb_header_line(header, std::string(scan.comment));
        } else {
          header.extra_comments.emplace_back(scan.comment);
        }
        return false;
      case LineKind::kRecord:
        in_header = false;
        return false;
      case LineKind::kError:
        records.pop_back();
        in_header = false;
        result.errors.push_back({line_no, std::move(scan.error)});
        return options.strict;
    }
    return false;
  };
  while (p < scan_end) {
    const char* const line_start = p;
    ++line_no;
    // Fused fast path: split fields and find the line end in ONE pass
    // — no memchr-then-rescan, no trim, no bounds checks (the line's
    // own '\n' is the sentinel). Accepts exactly the lines made of 18
    // space/tab-separated optionally-negative <=18-digit decimal
    // fields; anything else rewinds to line_start for the slow path.
    // The field loop is fully unrolled so every field gets its own
    // branch sites: SWF columns have near-constant shapes (field 2 is
    // a 7-8 digit submit time, field 3 is usually "-1", ...), and
    // per-field branch history predicts those shapes far better than
    // one shared token loop aggregating all 18 patterns.
    std::int64_t values[kFieldCount];
    const char* q = p;
    bool deviated = false;
    bool blank = false;
#pragma GCC unroll 18
    for (int f = 0; f < kFieldCount; ++f) {
      char c = *q;
      while (c == ' ' || c == '\t') c = *++q;
      const bool neg = c == '-';
      if (neg) c = *++q;
      if (c < '0' || c > '9') {
        // '\n' before the first token is a blank (whitespace-only)
        // line; anything else is the slow path's call.
        blank = f == 0 && !neg && c == '\n';
        deviated = !blank;
        break;
      }
      std::uint64_t v = 0;
      int digits = 0;
      do {
        v = v * 10 + std::uint64_t(c - '0');
        ++digits;
        c = *++q;
      } while (c >= '0' && c <= '9');
      if (digits > 18 || (c != ' ' && c != '\t' && c != '\n')) {
        deviated = true;
        break;
      }
      values[f] = neg ? -std::int64_t(v) : std::int64_t(v);
    }
    if (blank) {
      p = q + 1;  // consume the '\n'
      continue;
    }
    if (!deviated) {
      char c = *q;
      while (c == ' ' || c == '\t') c = *++q;
      if (c == '\n' && values[10] >= -1 && values[10] <= 4) {
        // Layout-checked above: values[] IS the record, status
        // included (values[10] is range-checked, so the
        // representation is a valid Status). One 144-byte copy
        // instead of 18 field stores.
        records.emplace_back();
        std::memcpy(&records.back(), values, sizeof(JobRecord));
        in_header = false;
        p = q + 1;  // consume the '\n'
        continue;
      }
      // Extra fields (legal only with allow_extra), a junk
      // terminator, or an out-of-range status: slow path either way.
    }
    p = q;  // q never passes the line's '\n'
    const void* nl = std::memchr(p, '\n', std::size_t(scan_end - p));
    const char* const line_end = static_cast<const char*>(nl);
    p = line_end + 1;
    if (slow_line({line_start, std::size_t(line_end - line_start)})) {
      return result;
    }
  }
  if (p < end) {
    // Unterminated final line.
    ++line_no;
    slow_line({p, std::size_t(end - p)});
  }
  return result;
}

}  // namespace

std::string parse_record_line(std::string_view line, bool allow_extra,
                              JobRecord& out) {
  const auto tokens = split_ws(line);
  if (tokens.size() < std::size_t(kFieldCount)) {
    return "expected " + std::to_string(kFieldCount) + " fields, got " +
           std::to_string(tokens.size());
  }
  if (tokens.size() > std::size_t(kFieldCount) && !allow_extra) {
    return "expected " + std::to_string(kFieldCount) + " fields, got " +
           std::to_string(tokens.size());
  }
  std::int64_t values[kFieldCount];
  for (int i = 0; i < kFieldCount; ++i) {
    const auto v = parse_i64(tokens[std::size_t(i)]);
    if (!v) {
      return "field " + std::to_string(i + 1) + " is not an integer: '" +
             std::string(tokens[std::size_t(i)]) + "'";
    }
    values[i] = *v;
  }
  out.job_number = values[0];
  out.submit_time = values[1];
  out.wait_time = values[2];
  out.run_time = values[3];
  out.allocated_procs = values[4];
  out.avg_cpu_time = values[5];
  out.used_memory_kb = values[6];
  out.requested_procs = values[7];
  out.requested_time = values[8];
  out.requested_memory_kb = values[9];
  if (values[10] < -1 || values[10] > 4) {
    return "field 11 (status) out of range: " + std::to_string(values[10]);
  }
  out.status = status_from_code(values[10]);
  out.user_id = values[11];
  out.group_id = values[12];
  out.executable_id = values[13];
  out.queue_id = values[14];
  out.partition_id = values[15];
  out.preceding_job = values[16];
  out.think_time = values[17];
  return {};
}

LineScan scan_swf_line(std::string_view raw, bool allow_extra,
                       JobRecord& out) {
  const std::string_view trimmed = util::trim(raw);
  LineScan scan;
  if (trimmed.empty()) {
    scan.kind = LineKind::kBlank;
    return scan;
  }
  if (trimmed.front() == ';') {
    scan.kind = LineKind::kComment;
    scan.comment = trimmed.substr(1);
    return scan;
  }
  // Fast path: space/tab-separated decimal fields, optionally negative,
  // at most 18 digits each (always within int64). One pass, no
  // allocation; the first deviation defers to the legacy grammar.
  const char* p = trimmed.data();
  const char* const e = p + trimmed.size();
  std::int64_t values[kFieldCount];
  int field = 0;
  bool fallback = false;
  while (p < e) {
    while (p < e && (*p == ' ' || *p == '\t')) ++p;
    if (p >= e) break;
    bool neg = false;
    if (*p == '-') {
      neg = true;
      ++p;
    }
    if (p >= e || *p < '0' || *p > '9') {
      fallback = true;
      break;
    }
    std::uint64_t v = 0;
    int digits = 0;
    do {
      v = v * 10 + std::uint64_t(*p - '0');
      ++digits;
      ++p;
    } while (p < e && *p >= '0' && *p <= '9');
    if (digits > 18 || (p < e && *p != ' ' && *p != '\t')) {
      fallback = true;
      break;
    }
    if (field < kFieldCount) {
      values[field] = neg ? -std::int64_t(v) : std::int64_t(v);
    } else if (!allow_extra) {
      fallback = true;
      break;
    }
    ++field;
  }
  if (!fallback && field >= kFieldCount && values[10] >= -1 &&
      values[10] <= 4) {
    out.job_number = values[0];
    out.submit_time = values[1];
    out.wait_time = values[2];
    out.run_time = values[3];
    out.allocated_procs = values[4];
    out.avg_cpu_time = values[5];
    out.used_memory_kb = values[6];
    out.requested_procs = values[7];
    out.requested_time = values[8];
    out.requested_memory_kb = values[9];
    // values[10] is already range-checked to [-1, 4]; the cast is
    // status_from_code's in-range mapping without the call.
    out.status = static_cast<Status>(values[10]);
    out.user_id = values[11];
    out.group_id = values[12];
    out.executable_id = values[13];
    out.queue_id = values[14];
    out.partition_id = values[15];
    out.preceding_job = values[16];
    out.think_time = values[17];
    scan.kind = LineKind::kRecord;
    return scan;
  }
  // Slow path: parse_record_line is the authority for every verdict
  // and every diagnostic message.
  std::string err = parse_record_line(trimmed, allow_extra, out);
  if (err.empty()) {
    scan.kind = LineKind::kRecord;
  } else {
    scan.kind = LineKind::kError;
    scan.error = std::move(err);
  }
  return scan;
}

ReadResult read_swf_string(const std::string& text,
                           const ReaderOptions& options) {
  return parse_buffer(text, options);
}

ReadResult read_swf_file(const std::string& path,
                         const ReaderOptions& options) {
  util::MmapFile file(path);
  if (!file.ok()) {
    ReadResult result;
    result.errors.push_back({0, "cannot open file: " + path});
    return result;
  }
  return parse_buffer(file.view(), options);
}

}  // namespace pjsb::swf
