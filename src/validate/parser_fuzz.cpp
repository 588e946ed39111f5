// Differential parser fuzzer: the reference reader is the oracle;
// swf::read_swf_string and a drained swf::StreamReader must agree with
// it byte-for-byte on records, header fields, verdicts and diagnostics
// for every mutation under every strict x allow_extra_fields pairing.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/swf/reader.hpp"
#include "core/swf/stream_reader.hpp"
#include "core/swf/writer.hpp"
#include "util/rng.hpp"
#include "validate/fuzzer.hpp"
#include "validate/reference_reader.hpp"

namespace pjsb::validate {

namespace {

/// Junk spliced into record lines: non-integers, overflow shapes,
/// signs, floats, NUL and UTF-8 bytes — each must produce the same
/// verdict from every reader.
const char* const kSpliceTokens[] = {
    "-",       "--3",       "abc",  "1e5",
    "0x10",    "99999999999999999999",
    "+7",      "3.5",       "\xc3\xa9junk",
    "nan",     "9223372036854775807", "-9223372036854775808",
    "9223372036854775808",  // one past int64 max: overflow reject
};

std::string huge_token(util::Rng& rng) {
  std::string t(std::size_t(rng.uniform_int(64, 2048)), '9');
  if (rng.bernoulli(0.3)) t.insert(t.begin(), '-');
  return t;
}

/// One seeded base input: usually a generated workload rendered to SWF
/// text, sometimes the degenerate shapes (empty, comment-only,
/// header-only, garbage-only) that exercise the header/EOF paths.
std::string base_input(util::Rng& rng, std::uint64_t case_seed) {
  switch (rng.uniform_int(0, 9)) {
    case 0:
      return "";
    case 1:
      return ";Computer: fuzz\n;Note: comment-only file\n";
    case 2:
      return "; stray comment\n\n\n;another\n";
    case 3:
      return "not an swf line at all\n";
    default: {
      const auto trace = fuzz_workload(case_seed,
                                       std::size_t(rng.uniform_int(3, 40)),
                                       32);
      swf::WriterOptions w;
      w.include_header = rng.bernoulli(0.8);
      return swf::write_swf_string(trace, w);
    }
  }
}

void mutate(std::string& text, util::Rng& rng) {
  if (text.empty() && !rng.bernoulli(0.3)) return;
  const int rounds = int(rng.uniform_int(0, 4));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_int(0, 8)) {
      case 0: {  // bit flip
        if (text.empty()) break;
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        text[pos] = char(text[pos] ^ (1 << rng.uniform_int(0, 7)));
        break;
      }
      case 1: {  // byte splice (NUL and high bytes included)
        if (text.empty()) break;
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        text[pos] = char(rng.uniform_int(0, 255));
        break;
      }
      case 2: {  // token splice
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        const auto& tok = kSpliceTokens[std::size_t(rng.uniform_int(
            0, std::int64_t(std::size(kSpliceTokens)) - 1))];
        text.insert(pos, tok);
        break;
      }
      case 3: {  // huge token
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        text.insert(pos, huge_token(rng));
        break;
      }
      case 4: {  // truncated tail
        if (text.empty()) break;
        text.resize(std::size_t(rng.uniform_int(0,
                                                std::int64_t(text.size()))));
        break;
      }
      case 5: {  // CRLF: convert some or all newlines
        std::string out;
        out.reserve(text.size() + 16);
        const bool all = rng.bernoulli(0.5);
        for (char c : text) {
          if (c == '\n' && (all || rng.bernoulli(0.3))) out += '\r';
          out += c;
        }
        text = std::move(out);
        break;
      }
      case 6: {  // insert a comment / blank / junk line mid-file
        const char* lines[] = {";mid comment\n", ";MaxNodes: 7\n", "\n",
                               "   \t  \n", "1 2 3\n", "; \n", "\v\f\n"};
        // Snap to the start of the next line so the insert is a whole
        // line (token splices already cover mid-line junk).
        auto pos = text.find(
            '\n', std::size_t(rng.uniform_int(0, std::int64_t(text.size()))));
        pos = pos == std::string::npos ? text.size() : pos + 1;
        text.insert(pos, lines[std::size_t(rng.uniform_int(
                             0, std::int64_t(std::size(lines)) - 1))]);
        break;
      }
      case 7: {  // duplicate a random span
        if (text.empty()) break;
        const auto a = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        const auto len = std::size_t(rng.uniform_int(
            1, std::min<std::int64_t>(200, std::int64_t(text.size() - a))));
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        text.insert(pos, text.substr(a, len));
        break;
      }
      case 8: {  // delete a random span
        if (text.empty()) break;
        const auto a = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        const auto len = std::size_t(rng.uniform_int(
            1, std::min<std::int64_t>(200, std::int64_t(text.size() - a))));
        text.erase(a, len);
        break;
      }
    }
  }
}

std::string describe(const swf::ParseError& e) {
  return std::to_string(e.line) + ": " + e.message;
}

struct CaseFailure {
  bool failed = false;
  std::string detail;
};

/// Physical lines in `text`: every '\n', plus an unterminated tail.
std::size_t physical_lines(const std::string& text) {
  const auto n = std::size_t(std::count(text.begin(), text.end(), '\n'));
  return n + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/// Run one mutated input through every reader and cross-check.
CaseFailure check_case(const std::string& text, bool strict,
                       bool allow_extra) {
  auto fail = [](std::string detail) {
    return CaseFailure{true, std::move(detail)};
  };
  const std::string tag = std::string(" [") + (strict ? "strict" : "lenient") +
                          (allow_extra ? " allow_extra" : "") + "]";

  swf::ReaderOptions options;
  options.strict = strict;
  options.allow_extra_fields = allow_extra;
  const auto oracle = reference_read_swf_string(text, options);

  // The batch reader: everything must match, including partial-
  // execution records and the unbounded error list.
  const auto batch = swf::read_swf_string(text, options);
  if (batch.trace.records != oracle.trace.records) {
    return fail("read_swf_string records diverge from the oracle" + tag);
  }
  if (!(batch.trace.header == oracle.trace.header)) {
    return fail("read_swf_string header diverges from the oracle" + tag);
  }
  if (batch.errors.size() != oracle.errors.size()) {
    return fail("read_swf_string error count " +
                std::to_string(batch.errors.size()) + " != oracle " +
                std::to_string(oracle.errors.size()) + tag);
  }
  for (std::size_t i = 0; i < batch.errors.size(); ++i) {
    if (!(batch.errors[i] == oracle.errors[i])) {
      return fail("read_swf_string error " + describe(batch.errors[i]) +
                  " != oracle " + describe(oracle.errors[i]) + tag);
    }
  }

  // The StreamReader yields summaries only and bounds its error
  // storage; after a full drain its counters must match the oracle's.
  swf::StreamReaderOptions stream_options;
  stream_options.strict = strict;
  stream_options.allow_extra_fields = allow_extra;
  swf::StreamReader stream(std::make_unique<std::istringstream>(text), "fuzz",
                           stream_options);
  std::vector<swf::JobRecord> streamed;
  while (auto r = stream.next()) streamed.push_back(*r);
  std::vector<swf::JobRecord> summaries;
  for (const auto& r : oracle.trace.records) {
    if (r.is_summary()) summaries.push_back(r);
  }
  if (streamed != summaries) {
    return fail("StreamReader records diverge from the oracle" + tag);
  }
  if (!(stream.header() == oracle.trace.header)) {
    return fail("StreamReader header diverges from the oracle" + tag);
  }
  if (stream.ok() != oracle.ok()) {
    return fail("verdict diverges: StreamReader ok()=" +
                std::to_string(stream.ok()) + " oracle ok()=" +
                std::to_string(oracle.ok()) + tag);
  }
  if (stream.error_count() != oracle.errors.size()) {
    return fail("StreamReader error_count " +
                std::to_string(stream.error_count()) + " != oracle " +
                std::to_string(oracle.errors.size()) + tag);
  }
  const std::size_t stored =
      std::min(oracle.errors.size(), swf::StreamReader::kMaxStoredErrors);
  if (!std::equal(stream.errors().begin(), stream.errors().end(),
                  oracle.errors.begin(),
                  oracle.errors.begin() + std::ptrdiff_t(stored))) {
    return fail("StreamReader bounded error list diverges from the oracle" +
                tag);
  }
  const std::size_t partials = oracle.trace.records.size() - summaries.size();
  if (stream.partials_skipped() != partials) {
    return fail("StreamReader partials_skipped " +
                std::to_string(stream.partials_skipped()) + tag);
  }
  // Strict mode stops on the first bad line; otherwise every physical
  // line is consumed.
  const std::size_t want_lines = strict && !oracle.errors.empty()
                                     ? oracle.errors.front().line
                                     : physical_lines(text);
  if (stream.lines_read() != want_lines) {
    return fail("StreamReader lines_read " +
                std::to_string(stream.lines_read()) + " != " +
                std::to_string(want_lines) + tag);
  }
  return {};
}

}  // namespace

std::string ParserFuzzReport::summary() const {
  std::string s = "parser fuzzer: " + std::to_string(cases) + " cases, " +
                  std::to_string(failure_count) + " failure(s)";
  if (failure_count > failures.size()) {
    s += " (first " + std::to_string(failures.size()) + " shown)";
  }
  for (const auto& f : failures) s += "\n  " + f;
  return s;
}

ParserFuzzReport run_parser_fuzzer(const ParserFuzzOptions& options) {
  ParserFuzzReport report;
  for (int c = 0; c < options.cases; ++c) {
    const std::uint64_t case_seed =
        util::derive_seed(options.seed, std::uint64_t(c));
    util::Rng rng(case_seed);
    std::string text = base_input(rng, case_seed);
    mutate(text, rng);
    ++report.cases;
    CaseFailure failure;
    try {
      for (const bool strict : {false, true}) {
        for (const bool allow_extra : {false, true}) {
          failure = check_case(text, strict, allow_extra);
          if (failure.failed) break;
        }
        if (failure.failed) break;
      }
    } catch (const std::exception& e) {
      failure = {true, std::string("exception: ") + e.what()};
    }
    if (failure.failed) {
      ++report.failure_count;
      if (report.failures.size() < options.max_failures) {
        report.failures.push_back(
            "[case=" + std::to_string(c) +
            " seed=" + std::to_string(options.seed) +
            " (derived " + std::to_string(case_seed) + ")] " +
            failure.detail);
      }
    }
  }
  return report;
}

}  // namespace pjsb::validate
