// Reader differential suite: the reference reader (a plain getline loop
// over parse_record_line) is the oracle. read_swf_string/read_swf_file
// must match it exactly (records, header, every error line and
// message), and a drained StreamReader must match its summary records,
// bounded error storage and counters — on every checked-in trace,
// generated Lublin'99/Jann'97 corpora, their corrupted variants and a
// set of pathological documents (CRLF endings, truncated tails, strict
// stops).
#include "core/swf/reader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/swf/stream_reader.hpp"
#include "core/swf/writer.hpp"
#include "util/rng.hpp"
#include "validate/reference_reader.hpp"
#include "workload/model.hpp"

namespace pjsb::swf {
namespace {

using validate::reference_read_swf_file;
using validate::reference_read_swf_string;

std::string repo_path(const std::string& relative) {
  return std::string(PJSB_SOURCE_DIR) + "/" + relative;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<JobRecord> drain(StreamReader& reader) {
  std::vector<JobRecord> records;
  while (auto r = reader.next()) records.push_back(*r);
  return records;
}

void expect_same_errors(const std::vector<ParseError>& got,
                        const std::vector<ParseError>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].line, want[i].line) << what << " error " << i;
    EXPECT_EQ(got[i].message, want[i].message) << what << " error " << i;
  }
}

void expect_same_result(const ReadResult& got, const ReadResult& want,
                        const std::string& what) {
  ASSERT_EQ(got.trace.records.size(), want.trace.records.size()) << what;
  for (std::size_t i = 0; i < got.trace.records.size(); ++i) {
    EXPECT_EQ(got.trace.records[i], want.trace.records[i])
        << what << " record " << i;
  }
  EXPECT_EQ(got.trace.header, want.trace.header) << what;
  expect_same_errors(got.errors, want.errors, what);
}

/// Physical lines in `text`: every '\n', plus an unterminated tail.
std::size_t physical_lines(const std::string& text) {
  const auto n = std::size_t(std::count(text.begin(), text.end(), '\n'));
  return n + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/// A drained StreamReader against the oracle's result for `text`.
void expect_stream_matches(StreamReader& stream, const ReadResult& oracle,
                           const std::string& text, bool strict,
                           const std::string& what) {
  const auto records = drain(stream);
  std::vector<JobRecord> summaries;
  for (const auto& r : oracle.trace.records) {
    if (r.is_summary()) summaries.push_back(r);
  }
  ASSERT_EQ(records.size(), summaries.size()) << what;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], summaries[i]) << what << " record " << i;
  }
  EXPECT_EQ(stream.header(), oracle.trace.header) << what;
  EXPECT_EQ(stream.ok(), oracle.ok()) << what;
  EXPECT_EQ(stream.error_count(), oracle.errors.size()) << what;
  const std::size_t stored =
      std::min(oracle.errors.size(), StreamReader::kMaxStoredErrors);
  expect_same_errors(
      stream.errors(),
      {oracle.errors.begin(),
       oracle.errors.begin() + std::ptrdiff_t(stored)},
      what + " stored");
  EXPECT_EQ(stream.partials_skipped(),
            oracle.trace.records.size() - summaries.size())
      << what;
  EXPECT_EQ(stream.records_returned(), summaries.size()) << what;
  // Strict mode stops on the first bad line; otherwise every physical
  // line is consumed.
  const std::size_t want_lines = strict && !oracle.errors.empty()
                                     ? oracle.errors.front().line
                                     : physical_lines(text);
  EXPECT_EQ(stream.lines_read(), want_lines) << what;
}

/// The full differential battery over one input text.
void expect_conformant(const std::string& text, const std::string& what,
                       bool strict = false, bool allow_extra = false) {
  const std::string tag = what + (strict ? " [strict]" : "") +
                          (allow_extra ? " [allow_extra]" : "");
  ReaderOptions options;
  options.strict = strict;
  options.allow_extra_fields = allow_extra;
  const auto oracle = reference_read_swf_string(text, options);

  expect_same_result(read_swf_string(text, options), oracle,
                     tag + " read_swf_string");

  StreamReaderOptions stream_options;
  stream_options.strict = strict;
  stream_options.allow_extra_fields = allow_extra;
  StreamReader stream(std::make_unique<std::istringstream>(text), "diff",
                      stream_options);
  expect_stream_matches(stream, oracle, text, strict, tag + " StreamReader");
}

swf::Trace generate(workload::ModelKind kind, std::size_t jobs,
                    std::uint64_t seed) {
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = 64;
  util::Rng rng(seed);
  return workload::generate(kind, config, rng);
}

/// Deterministic corruption: enough damage to hit every diagnostic
/// path, reproducible so a failure names its variant.
std::string corrupt(std::string text, std::uint64_t seed) {
  util::Rng rng(seed);
  const char* const splices[] = {"abc",  "-",  "1e5", "0x10",
                                 "99999999999999999999", "+7", "3.5"};
  for (int i = 0; i < 12 && !text.empty(); ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        text[pos] = char(rng.uniform_int(0, 255));
        break;
      }
      case 1: {
        const auto pos =
            std::size_t(rng.uniform_int(0, std::int64_t(text.size())));
        text.insert(pos, splices[std::size_t(rng.uniform_int(
                             0, std::int64_t(std::size(splices)) - 1))]);
        break;
      }
      case 2: {  // drop a span: mangles field counts across a line
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(text.size()) - 1));
        text.erase(pos, std::size_t(rng.uniform_int(1, 30)));
        break;
      }
      case 3: {  // CRLF some line endings
        const auto nl = text.find('\n', std::size_t(rng.uniform_int(
                                            0, std::int64_t(text.size()))));
        if (nl != std::string::npos) text.insert(nl, 1, '\r');
        break;
      }
    }
  }
  return text;
}

/// Adversarial input: header block, CRLF endings, interleaved
/// comments and blanks, malformed fields of every flavor, partial
/// (status 2-4) records and a truncated final line.
std::string adversarial_text() {
  const auto trace = generate(workload::ModelKind::kLublin99, 40, 12345);
  std::string text = write_swf_string(trace);
  // CRLF a third of the endings.
  std::string crlf;
  int n = 0;
  for (char c : text) {
    if (c == '\n' && (++n % 3 == 0)) crlf += '\r';
    crlf += c;
  }
  text = std::move(crlf);
  text += ";interleaved comment\n";
  text += "\n   \t \n";
  text += "1 2 3\n";                               // too few fields
  text += "1 2 3 4 5 6 7 8 9 x 1 2 3 4 5 6 7 8\n"; // non-integer field
  text += "1 2 3 4 5 6 7 8 9 10 99 12 13 14 15 16 17 18\n";  // bad status
  JobRecord partial;
  partial.job_number = 777;
  partial.status = Status::kPartial;
  text += partial.to_line() + "\n";
  text += ";trailing comment\n";
  text += trace.records.front().to_line();  // truncated: no newline
  return text;
}

TEST(ReaderDiff, CheckedInTraces) {
  for (const char* name : {"data/tiny.swf", "data/contention.swf",
                           "data/crashy.swf"}) {
    const auto text = slurp(repo_path(name));
    ASSERT_FALSE(text.empty()) << name;
    expect_conformant(text, name);
    expect_conformant(text, name, /*strict=*/true);
    expect_conformant(text, name, /*strict=*/false, /*allow_extra=*/true);
  }
}

TEST(ReaderDiff, GeneratedLublin99Corpus) {
  const auto trace = generate(workload::ModelKind::kLublin99, 400, 99);
  const auto text = write_swf_string(trace);
  expect_conformant(text, "lublin99");
  expect_conformant(text, "lublin99", /*strict=*/true);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_conformant(corrupt(text, seed),
                      "lublin99 corrupted seed=" + std::to_string(seed));
    expect_conformant(corrupt(text, seed),
                      "lublin99 corrupted strict seed=" +
                          std::to_string(seed),
                      /*strict=*/true);
  }
}

TEST(ReaderDiff, GeneratedJann97Corpus) {
  const auto trace = generate(workload::ModelKind::kJann97, 400, 97);
  const auto text = write_swf_string(trace);
  expect_conformant(text, "jann97");
  for (std::uint64_t seed = 5; seed <= 8; ++seed) {
    expect_conformant(corrupt(text, seed),
                      "jann97 corrupted seed=" + std::to_string(seed));
    expect_conformant(corrupt(text, seed),
                      "jann97 corrupted allow_extra seed=" +
                          std::to_string(seed),
                      /*strict=*/false, /*allow_extra=*/true);
  }
}

TEST(ReaderDiff, LargeInputSizesItsRecordBufferExactly) {
  // Past 256 KB the reader counts newlines to size its record buffer
  // instead of guessing from the byte count; the result must not move.
  const auto trace = generate(workload::ModelKind::kLublin99, 5000, 21);
  const auto text = write_swf_string(trace);
  ASSERT_GT(text.size(), std::size_t(256) << 10);
  expect_conformant(text, "large lublin99");
  expect_conformant(corrupt(text, 9), "large lublin99 corrupted");
}

TEST(ReaderDiff, EdgeShapes) {
  expect_conformant("", "empty");
  expect_conformant("\n\n\n", "blank lines");
  expect_conformant(";only: comments\n;more\n", "comment-only");
  expect_conformant("garbage\n", "garbage line");
  expect_conformant("1 2 3\n", "short record");
  // Truncated final line (no trailing newline) still parses.
  const auto trace = generate(workload::ModelKind::kLublin99, 5, 3);
  auto text = write_swf_string(trace);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  expect_conformant(text, "truncated tail");
  // Comments and blanks interleaved after the header block; a late
  // directive is kept as a comment, not absorbed into the header.
  expect_conformant(write_swf_string(trace) + ";late comment\n\n" +
                        ";MaxNodes: 999\n" +
                        trace.records.front().to_line() + "\n",
                    "late comment");
}

TEST(ReaderDiff, AdversarialDocument) {
  const auto text = adversarial_text();
  expect_conformant(text, "adversarial");
  expect_conformant(text, "adversarial", /*strict=*/false,
                    /*allow_extra=*/true);
  // Strict mode stops at the first bad line, the same one everywhere.
  expect_conformant(text, "adversarial", /*strict=*/true);
  const auto strict = read_swf_string(text, {.strict = true});
  ASSERT_EQ(strict.errors.size(), 1u);
}

TEST(ReaderDiff, CrlfEndings) {
  // Every line ends \r\n; the last one ends in a bare '\r' that folds
  // into the final token.
  std::string text = ";H: v\r\n\r\n";
  JobRecord r;
  r.job_number = 1;
  r.status = Status::kCompleted;
  text += r.to_line() + "\r\n";
  text += "bad\r\n";
  text += r.to_line() + "\r";
  expect_conformant(text, "crlf");
  expect_conformant(text, "crlf", /*strict=*/true);
}

TEST(ReaderDiff, FileBackedPathMatchesOracle) {
  const auto trace = generate(workload::ModelKind::kLublin99, 200, 7);
  const std::string path = ::testing::TempDir() + "/reader_diff_file.swf";
  ASSERT_TRUE(write_swf_file(path, trace));

  const auto oracle = reference_read_swf_file(path);
  ASSERT_TRUE(oracle.ok());
  expect_same_result(read_swf_file(path), oracle, "read_swf_file");
  StreamReader stream(path);
  expect_stream_matches(stream, oracle, slurp(path), /*strict=*/false,
                        "StreamReader(path)");
  std::remove(path.c_str());
}

TEST(ReaderDiff, MissingFileReportsTheSameDiagnostic) {
  const std::string path = "/nonexistent/definitely_missing.swf";
  const auto oracle = reference_read_swf_file(path);
  ASSERT_EQ(oracle.errors.size(), 1u);
  expect_same_result(read_swf_file(path), oracle, "read_swf_file");

  StreamReader stream(path);
  EXPECT_TRUE(stream.open_failed());
  EXPECT_FALSE(stream.ok());
  EXPECT_EQ(stream.next(), std::nullopt);
  expect_same_errors(stream.errors(), oracle.errors, "StreamReader");
}

TEST(ReaderDiff, BoundedErrorStorage) {
  // 200 malformed lines: StreamReader storage stays at the bound, the
  // count exact; the batch reader keeps every diagnostic.
  std::string text;
  for (int i = 0; i < 200; ++i) text += "bad line " + std::to_string(i) + "\n";
  expect_conformant(text, "200 bad lines");
  EXPECT_EQ(read_swf_string(text).errors.size(), 200u);
}

}  // namespace
}  // namespace pjsb::swf
