// The differential parser fuzzer itself: seeded runs are clean
// (read_swf_string and StreamReader agree with the reference reader on
// every mutation), deterministic, and exact about case accounting.
#include "validate/fuzzer.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pjsb::validate {
namespace {

TEST(ParserFuzz, SeededRunIsClean) {
  ParserFuzzOptions options;
  options.seed = 1;
  options.cases = 120;
  const auto report = run_parser_fuzzer(options);
  EXPECT_EQ(report.cases, options.cases);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ParserFuzz, CiSeedIsClean) {
  ParserFuzzOptions options;
  options.seed = 20260730;  // the second seed pinned in CI
  options.cases = 120;
  const auto report = run_parser_fuzzer(options);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ParserFuzz, Deterministic) {
  ParserFuzzOptions options;
  options.seed = 42;
  options.cases = 30;
  const auto a = run_parser_fuzzer(options);
  const auto b = run_parser_fuzzer(options);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.failure_count, b.failure_count);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(ParserFuzz, SummaryShape) {
  ParserFuzzOptions options;
  options.cases = 5;
  const auto report = run_parser_fuzzer(options);
  const auto s = report.summary();
  EXPECT_NE(s.find("parser fuzzer: 5 cases"), std::string::npos) << s;
  EXPECT_NE(s.find("failure(s)"), std::string::npos) << s;
}

}  // namespace
}  // namespace pjsb::validate
