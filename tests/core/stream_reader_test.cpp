// StreamReader: grammar parity with the in-memory reader, header
// capture, malformed/truncated-line diagnostics and bounded error
// storage.
#include "core/swf/stream_reader.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/swf/reader.hpp"
#include "core/swf/writer.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"

namespace pjsb::swf {
namespace {

std::string record_line(std::int64_t job, std::int64_t submit,
                        std::int64_t runtime = 100,
                        std::int64_t procs = 4) {
  JobRecord r;
  r.job_number = job;
  r.submit_time = submit;
  r.wait_time = 0;
  r.run_time = runtime;
  r.allocated_procs = procs;
  r.requested_procs = procs;
  r.requested_time = runtime;
  r.status = Status::kCompleted;
  return r.to_line();
}

std::unique_ptr<std::istream> stream_of(const std::string& text) {
  return std::make_unique<std::istringstream>(text);
}

std::vector<JobRecord> drain(StreamReader& reader) {
  std::vector<JobRecord> records;
  while (auto r = reader.next()) records.push_back(*r);
  return records;
}

TEST(StreamReader, ParsesRecordsAndHeader) {
  const std::string text =
      "; Computer: Test Machine\n"
      "; MaxNodes: 64\n"
      "; Note: hello\n"
      "; free-form comment without a label\n"
      "\n" +
      record_line(1, 0) + "\n" + record_line(2, 10) + "\n";
  StreamReader reader(stream_of(text), "test");
  EXPECT_EQ(reader.header().computer, "Test Machine");
  EXPECT_EQ(reader.header().max_nodes, 64);
  ASSERT_EQ(reader.header().notes.size(), 1u);
  ASSERT_EQ(reader.header().extra_comments.size(), 1u);

  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_EQ(records[1].submit_time, 10);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.records_returned(), 2u);
}

TEST(StreamReader, HeaderCompleteBeforeFirstNext) {
  // The engine sizes the machine from MaxNodes before pulling any job;
  // the header must be fully parsed at construction.
  const std::string text =
      "; MaxNodes: 512\n; MaxRuntime: 777\n" + record_line(1, 0) + "\n";
  StreamReader reader(stream_of(text), "test");
  EXPECT_EQ(reader.header().max_nodes, 512);
  EXPECT_EQ(reader.header().max_runtime, 777);
}

TEST(StreamReader, CommentsAfterRecordsAreNotHeaderDirectives) {
  const std::string text = "; MaxNodes: 64\n" + record_line(1, 0) +
                           "\n; MaxNodes: 9999\n" + record_line(2, 5) + "\n";
  StreamReader reader(stream_of(text), "test");
  const auto records = drain(reader);
  EXPECT_EQ(records.size(), 2u);
  // Matches read_swf: a late "directive" is preserved as a comment, not
  // absorbed.
  EXPECT_EQ(reader.header().max_nodes, 64);
  ASSERT_EQ(reader.header().extra_comments.size(), 1u);
  EXPECT_EQ(reader.header().extra_comments[0], " MaxNodes: 9999");
}

TEST(StreamReader, MalformedLinesReportLineNumbersAndAreSkipped) {
  const std::string text = "; MaxNodes: 8\n" +          // line 1
                           record_line(1, 0) + "\n" +   // line 2
                           "1 2 3\n" +                  // line 3: too few
                           record_line(2, 5) + "\n" +   // line 4
                           "a b c d e f g h i j k l m n o p q r\n" +  // 5
                           record_line(3, 9) + "\n";    // line 6
  StreamReader reader(stream_of(text), "test");
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.error_count(), 2u);
  ASSERT_EQ(reader.errors().size(), 2u);
  EXPECT_EQ(reader.errors()[0].line, 3u);
  EXPECT_EQ(reader.errors()[1].line, 5u);
  EXPECT_NE(reader.errors()[0].message.find("18 fields"),
            std::string::npos);
  EXPECT_NE(reader.errors()[1].message.find("not an integer"),
            std::string::npos);
}

TEST(StreamReader, StatusOutOfRangeIsMalformed) {
  // Field 11 (status = 7) out of range.
  StreamReader reader(
      stream_of("1 0 0 100 4 -1 -1 4 100 -1 7 -1 -1 -1 -1 -1 -1 -1\n"),
      "test");
  EXPECT_EQ(drain(reader).size(), 0u);
  EXPECT_EQ(reader.error_count(), 1u);
}

TEST(StreamReader, StrictModeStopsAtFirstError) {
  const std::string text = record_line(1, 0) + "\nbad line\n" +
                           record_line(2, 5) + "\n";
  StreamReaderOptions options;
  options.strict = true;
  StreamReader reader(stream_of(text), "test", options);
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(reader.error_count(), 1u);
  EXPECT_EQ(reader.errors()[0].line, 2u);
}

TEST(StreamReader, ExtraFieldsTolerantModeMatchesReader) {
  const std::string line18 = record_line(1, 0);
  const std::string text = line18 + " 42 43\n";
  StreamReader strict_reader(stream_of(text), "test");
  EXPECT_EQ(drain(strict_reader).size(), 0u);
  EXPECT_EQ(strict_reader.error_count(), 1u);

  StreamReaderOptions options;
  options.allow_extra_fields = true;
  StreamReader tolerant(stream_of(text), "test", options);
  EXPECT_EQ(drain(tolerant).size(), 1u);
  EXPECT_TRUE(tolerant.ok());
}

TEST(StreamReader, TruncatedFinalLineStillParses) {
  // No trailing newline: the final record must not be lost.
  const std::string text = record_line(1, 0) + "\n" + record_line(2, 7);
  StreamReaderOptions options;
  options.chunk_bytes = 16;  // force many chunk-boundary crossings
  StreamReader reader(stream_of(text), "test", options);
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].submit_time, 7);
  EXPECT_TRUE(reader.ok());
}

TEST(StreamReader, TruncatedMidRecordFinalLineIsAnError) {
  // A record chopped mid-line (e.g. an interrupted download).
  const std::string full = record_line(2, 7);
  const std::string text =
      record_line(1, 0) + "\n" + full.substr(0, full.size() / 2);
  StreamReader reader(stream_of(text), "test");
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(reader.error_count(), 1u);
  EXPECT_EQ(reader.errors()[0].line, 2u);
}

TEST(StreamReader, MalformedUnterminatedFinalLineVariants) {
  // The truncated final line (no trailing newline) must go through the
  // same malformed-line accounting as any interior line, whatever the
  // kind of damage.
  struct Case {
    const char* name;
    std::string last_line;
  };
  const std::vector<Case> cases = {
      {"non-numeric garbage", "this is not a record"},
      {"too few fields", "3 20 -1 5"},
      {"too many fields", record_line(3, 20) + " 99"},
      {"status out of range", [] {
         auto line = record_line(3, 20);
         // Field 11 (status) is the 11th token; rewrite it to 9.
         std::istringstream in(line);
         std::string token, rebuilt;
         for (int i = 1; in >> token; ++i) {
           if (i == 11) token = "9";
           rebuilt += (i == 1 ? "" : " ") + token;
         }
         return rebuilt;
       }()},
  };
  for (const auto& c : cases) {
    const std::string text =
        record_line(1, 0) + "\n" + record_line(2, 7) + "\n" + c.last_line;
    StreamReader reader(stream_of(text), "test");
    const auto records = drain(reader);
    EXPECT_EQ(records.size(), 2u) << c.name;
    EXPECT_EQ(reader.error_count(), 1u) << c.name;
    ASSERT_EQ(reader.errors().size(), 1u) << c.name;
    EXPECT_EQ(reader.errors()[0].line, 3u) << c.name;
  }
}

TEST(StreamReader, MalformedFinalLineStrictModeStillReportsIt) {
  const std::string text = record_line(1, 0) + "\n" + "garbage final";
  StreamReaderOptions options;
  options.strict = true;
  StreamReader reader(stream_of(text), "test", options);
  const auto records = drain(reader);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(reader.error_count(), 1u);
  EXPECT_EQ(reader.errors()[0].line, 2u);
  EXPECT_FALSE(reader.ok());
}

TEST(StreamReader, MalformedFinalLineAcrossChunkBoundary) {
  // A tiny chunk size forces the unterminated, malformed tail to span
  // several chunk reads before end-of-input resolves it.
  const std::string text = record_line(1, 0) + "\n" +
                           "trailing garbage that is quite long indeed";
  StreamReaderOptions options;
  options.chunk_bytes = 8;
  StreamReader reader(stream_of(text), "test", options);
  EXPECT_EQ(drain(reader).size(), 1u);
  EXPECT_EQ(reader.error_count(), 1u);
  EXPECT_EQ(reader.errors()[0].line, 2u);
}

TEST(StreamReader, CrlfFinalLineWithoutNewlineParses) {
  // Windows line endings with a bare-CR tail: the final record keeps
  // its trailing \r and must still parse (the shared record parser
  // tolerates trailing whitespace).
  const std::string text =
      record_line(1, 0) + "\r\n" + record_line(2, 7) + "\r";
  StreamReader reader(stream_of(text), "test");
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].submit_time, 7);
  EXPECT_TRUE(reader.ok());
}

TEST(StreamReader, PartialExecutionLinesAreSkippedWithCounter) {
  JobRecord partial;
  partial.job_number = 1;
  partial.submit_time = 0;
  partial.run_time = 5;
  partial.allocated_procs = 1;
  partial.requested_procs = 1;
  partial.status = Status::kPartial;
  const std::string text =
      record_line(1, 0) + "\n" + partial.to_line() + "\n" +
      record_line(2, 5) + "\n";
  StreamReader reader(stream_of(text), "test");
  EXPECT_EQ(drain(reader).size(), 2u);
  EXPECT_EQ(reader.partials_skipped(), 1u);
  EXPECT_TRUE(reader.ok());
}

TEST(StreamReader, EmptyAndHeaderOnlyInputs) {
  StreamReader empty(stream_of(""), "test");
  EXPECT_FALSE(empty.next().has_value());
  EXPECT_TRUE(empty.ok());

  StreamReader header_only(stream_of("; MaxNodes: 4\n; Note: n\n"), "test");
  EXPECT_FALSE(header_only.next().has_value());
  EXPECT_EQ(header_only.header().max_nodes, 4);
  EXPECT_TRUE(header_only.ok());
}

TEST(StreamReader, MissingFileReportsOpenFailure) {
  StreamReader reader("/nonexistent/path/to/trace.swf");
  EXPECT_TRUE(reader.open_failed());
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
  ASSERT_EQ(reader.errors().size(), 1u);
  EXPECT_EQ(reader.errors()[0].line, 0u);
}

TEST(StreamReader, ErrorStorageIsBoundedButCountExact) {
  const std::size_t lines = StreamReader::kMaxStoredErrors + 10;
  std::string text;
  for (std::size_t i = 0; i < lines; ++i) text += "broken\n";
  StreamReader reader(stream_of(text), "test");
  drain(reader);
  ASSERT_EQ(reader.errors().size(), StreamReader::kMaxStoredErrors);
  EXPECT_EQ(reader.error_count(), lines);
  EXPECT_EQ(reader.errors().back().line, StreamReader::kMaxStoredErrors);
}

std::string model_trace_text(std::size_t jobs) {
  util::Rng rng(99);
  workload::ModelConfig config;
  config.jobs = jobs;
  const auto trace =
      workload::generate(workload::ModelKind::kLublin99, config, rng);
  return write_swf_string(trace);
}

TEST(StreamReader, MatchesInMemoryReaderOnModelTrace) {
  const auto text = model_trace_text(500);
  const auto expected = read_swf_string(text);
  ASSERT_TRUE(expected.ok());

  StreamReaderOptions options;
  options.chunk_bytes = 97;  // deliberately tiny and unaligned
  StreamReader reader(stream_of(text), "test", options);
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), expected.trace.records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], expected.trace.records[i]) << "record " << i;
  }
  EXPECT_EQ(reader.header(), expected.trace.header);
}

TEST(TraceSource, YieldsOnlySummaryRecordsInOrder) {
  Trace trace;
  JobRecord a;
  a.job_number = 1;
  a.submit_time = 0;
  a.status = Status::kCompleted;
  JobRecord partial = a;
  partial.job_number = 1;
  partial.status = Status::kPartial;
  JobRecord b = a;
  b.job_number = 2;
  b.submit_time = 10;
  trace.records = {a, partial, b};

  TraceSource source(trace);
  const auto first = source.next();
  const auto second = source.next();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->job_number, 1);
  EXPECT_EQ(second->job_number, 2);
  EXPECT_FALSE(source.next().has_value());
}

}  // namespace
}  // namespace pjsb::swf
