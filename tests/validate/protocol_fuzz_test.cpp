// The protocol/session fuzzer itself: fixed seeds run clean, runs are
// deterministic, and the accounting is exact.
#include "validate/fuzzer.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pjsb::validate {
namespace {

TEST(ProtocolFuzz, SeededRunIsClean) {
  ProtocolFuzzOptions options;
  options.seed = 1;
  options.cases = 300;
  const auto report = run_protocol_fuzzer(options);
  EXPECT_EQ(report.cases, options.cases);
  EXPECT_EQ(report.lines, std::int64_t(options.cases) * 40);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ProtocolFuzz, CiSeedIsClean) {
  ProtocolFuzzOptions options;
  options.seed = 20260730;  // the second seed pinned in CI
  options.cases = 300;
  const auto report = run_protocol_fuzzer(options);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ProtocolFuzz, Deterministic) {
  ProtocolFuzzOptions options;
  options.seed = 42;
  options.cases = 50;
  const auto a = run_protocol_fuzzer(options);
  const auto b = run_protocol_fuzzer(options);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(ProtocolFuzz, SummaryShape) {
  ProtocolFuzzOptions options;
  options.cases = 3;
  const auto s = run_protocol_fuzzer(options).summary();
  EXPECT_NE(s.find("protocol fuzzer: 3 cases, 120 lines"), std::string::npos)
      << s;
  EXPECT_NE(s.find("failure(s)"), std::string::npos) << s;
}

}  // namespace
}  // namespace pjsb::validate
