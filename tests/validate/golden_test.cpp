// Golden decision-trace snapshots: the committed references under
// data/golden/ must match fresh replays, and the bless/check/diff
// machinery must round-trip.
#include "validate/golden.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "core/swf/reader.hpp"
#include "util/rng.hpp"
#include "validate/decisions.hpp"
#include "validate/fuzzer.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace pjsb {
namespace {

std::string source_path(const std::string& relative) {
  return std::string(PJSB_SOURCE_DIR) + "/" + relative;
}

swf::Trace load_tiny() {
  auto result = swf::read_swf_file(source_path("data/tiny.swf"));
  EXPECT_TRUE(result.errors.empty());
  return result.trace;
}

std::string temp_golden_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(Golden, CommittedConservativeSnapshotMatches) {
  const auto result = validate::check_golden(
      load_tiny(), "conservative",
      source_path("data/golden/tiny_conservative.decisions"));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(Golden, CommittedEasySnapshotMatches) {
  const auto result = validate::check_golden(
      load_tiny(), "easy", source_path("data/golden/tiny_easy.decisions"));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(Golden, ContentionSnapshotsMatchAndDiscriminatePolicies) {
  auto result = swf::read_swf_file(source_path("data/contention.swf"));
  ASSERT_TRUE(result.errors.empty());
  const auto& trace = result.trace;
  const auto cons = validate::check_golden(
      trace, "conservative",
      source_path("data/golden/contention_conservative.decisions"));
  EXPECT_TRUE(cons.ok) << cons.message;
  const auto easy = validate::check_golden(
      trace, "easy", source_path("data/golden/contention_easy.decisions"));
  EXPECT_TRUE(easy.ok) << easy.message;
  // The whole point of this workload: the snapshots must differ, so a
  // regression collapsing one policy into the other cannot pass both.
  const auto cons_csv = validate::decisions_to_csv(
      validate::replay_decisions(trace, "conservative"));
  const auto easy_csv = validate::decisions_to_csv(
      validate::replay_decisions(trace, "easy"));
  const auto fcfs_csv = validate::decisions_to_csv(
      validate::replay_decisions(trace, "fcfs"));
  EXPECT_NE(cons_csv, easy_csv);
  EXPECT_NE(cons_csv, fcfs_csv);
  EXPECT_NE(easy_csv, fcfs_csv);
}

// 64-bit FNV-1a: pins a decision trace too long to commit as a file.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Golden, SeededLublinTracePinsQueueOrderedPolicies) {
  // The trace `swf_tool generate lublin99 3000 64 0.9` writes: a queue
  // deep and long-lived enough that depth-limited reservations, held
  // slots surviving submission-only passes and SJF's out-of-order
  // starts all shape the schedule, which the small committed traces do
  // not exercise.
  util::Rng rng(12345);
  workload::ModelConfig config;
  config.jobs = 3000;
  config.machine_nodes = 64;
  const swf::Trace trace = workload::scale_to_load(
      workload::generate(workload::ModelKind::kLublin99, config, rng), 0.9,
      64);
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"conservative", 0x62de039156ce3bdbULL},
      {"conservative reserve_depth=4", 0xf1140396b8a99cebULL},
      {"easy reserve_depth=4", 0x8cb6ee1fda5e65f9ULL},
      {"sjf", 0x239df104b419b194ULL},
      {"sjf-fit", 0x85167b9444a65787ULL},
  };
  // The five pins differ, so each one discriminates its policy.
  for (const auto& [spec, pin] : pins) {
    const std::uint64_t h = fnv1a64(validate::decisions_to_csv(
        validate::replay_decisions(trace, spec, 64)));
    EXPECT_EQ(h, pin) << spec << ": 0x" << std::hex << h;
  }
}

TEST(Golden, BlessThenCheckRoundTrips) {
  const auto trace = validate::fuzz_workload(77, 40, 32);
  const std::string path = temp_golden_path("bless_roundtrip.decisions");
  const auto blessed = validate::bless_golden(trace, "easy", path);
  ASSERT_TRUE(blessed.ok) << blessed.message;
  const auto checked = validate::check_golden(trace, "easy", path);
  EXPECT_TRUE(checked.ok) << checked.message;
  std::remove(path.c_str());
}

TEST(Golden, MismatchReportsFirstDivergenceAndWritesActual) {
  const auto trace = validate::fuzz_workload(78, 40, 32);
  const std::string path = temp_golden_path("mismatch.decisions");
  ASSERT_TRUE(validate::bless_golden(trace, "easy", path).ok);
  // Checking a different policy against the easy snapshot must fail,
  // name the first divergent line, and dump the actual trace for CI.
  const auto checked = validate::check_golden(trace, "fcfs", path);
  ASSERT_FALSE(checked.ok);
  EXPECT_NE(checked.message.find("diverge"), std::string::npos)
      << checked.message;
  ASSERT_FALSE(checked.actual_path.empty());
  std::ifstream actual(checked.actual_path);
  EXPECT_TRUE(actual.good());
  std::string header;
  std::getline(actual, header);
  EXPECT_EQ(header, "time,job,procs,virtual");
  std::remove(path.c_str());
  std::remove(checked.actual_path.c_str());
}

TEST(Golden, MissingSnapshotFailsWithBlessHint) {
  const auto trace = validate::fuzz_workload(79, 10, 32);
  const auto result = validate::check_golden(
      trace, "easy", temp_golden_path("does_not_exist.decisions"));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("--bless"), std::string::npos);
}

TEST(DecisionCsv, StableHeaderAndShape) {
  const auto trace = validate::fuzz_workload(80, 20, 32);
  const auto decisions = validate::replay_decisions(trace, "fcfs");
  ASSERT_FALSE(decisions.empty());
  const auto csv = validate::decisions_to_csv(decisions);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "time,job,procs,virtual");
  // One line per decision plus the header.
  EXPECT_EQ(std::size_t(std::count(csv.begin(), csv.end(), '\n')),
            decisions.size() + 1);
}

TEST(DecisionCsv, DiffPinpointsFirstDivergentLine) {
  const std::string a = "time,job,procs,virtual\n1,1,4,0\n2,2,8,0\n";
  const std::string b = "time,job,procs,virtual\n1,1,4,0\n3,2,8,0\n";
  EXPECT_TRUE(validate::diff_decision_csv(a, a).empty());
  const auto diff = validate::diff_decision_csv(a, b);
  EXPECT_NE(diff.find("line 3"), std::string::npos) << diff;
  // A truncated trace reports the end-of-trace side.
  const auto truncated =
      validate::diff_decision_csv(a, "time,job,procs,virtual\n1,1,4,0\n");
  EXPECT_NE(truncated.find("<end of trace>"), std::string::npos);
}

}  // namespace
}  // namespace pjsb
