#include "sched/profile.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace pjsb::sched {
namespace {

TEST(Profile, EmptyProfileFullyAvailable) {
  CapacityProfile p(64);
  EXPECT_EQ(p.available_at(0), 64);
  EXPECT_EQ(p.available_at(1000000), 64);
  EXPECT_EQ(p.min_available(0, kForever), 64);
  EXPECT_EQ(p.earliest_start(5, 100, 64), 5);
}

TEST(Profile, UsageSubtracts) {
  CapacityProfile p(64);
  p.add_usage(10, 20, 40);
  EXPECT_EQ(p.available_at(9), 64);
  EXPECT_EQ(p.available_at(10), 24);
  EXPECT_EQ(p.available_at(19), 24);
  EXPECT_EQ(p.available_at(20), 64);
}

TEST(Profile, RemoveIsExactInverse) {
  CapacityProfile p(64);
  p.add_usage(10, 20, 40);
  p.add_usage(15, 25, 10);
  p.remove_usage(10, 20, 40);
  p.remove_usage(15, 25, 10);
  for (std::int64_t t : {0, 10, 15, 20, 25, 30}) {
    EXPECT_EQ(p.available_at(t), 64) << t;
  }
}

TEST(Profile, MinAvailableOverWindow) {
  CapacityProfile p(64);
  p.add_usage(10, 20, 30);
  p.add_usage(15, 30, 20);
  EXPECT_EQ(p.min_available(0, 10), 64);
  EXPECT_EQ(p.min_available(0, 16), 14);  // overlap 15..20 -> 64-50
  EXPECT_EQ(p.min_available(20, 30), 44);
  EXPECT_EQ(p.min_available(30, 40), 64);
}

TEST(Profile, FitsBoundary) {
  CapacityProfile p(10);
  p.add_usage(100, 200, 10);
  EXPECT_TRUE(p.fits(0, 100, 10));    // [0,100) just misses the block
  EXPECT_FALSE(p.fits(0, 101, 10));
  EXPECT_TRUE(p.fits(200, 50, 10));   // starts as block ends
}

TEST(Profile, EarliestStartSkipsBusyWindows) {
  CapacityProfile p(10);
  p.add_usage(0, 100, 8);
  // 4 procs fit immediately (10-8=2 is too few? no: need 4 > 2).
  EXPECT_EQ(p.earliest_start(0, 10, 2), 0);
  EXPECT_EQ(p.earliest_start(0, 10, 4), 100);
  EXPECT_EQ(p.earliest_start(0, 10, 10), 100);
}

TEST(Profile, EarliestStartFindsGapBetweenBlocks) {
  CapacityProfile p(10);
  p.add_usage(0, 50, 10);
  p.add_usage(100, 200, 10);
  EXPECT_EQ(p.earliest_start(0, 50, 5), 50);   // fits in [50,100)
  EXPECT_EQ(p.earliest_start(0, 60, 5), 200);  // gap too short
}

TEST(Profile, EarliestStartImpossibleReturnsForever) {
  CapacityProfile p(10);
  EXPECT_EQ(p.earliest_start(0, 10, 11), kForever);
  p.add_usage(0, kForever, 5);
  EXPECT_EQ(p.earliest_start(0, 10, 6), kForever);
}

TEST(Profile, OpenEndedUsage) {
  CapacityProfile p(10);
  p.add_usage(50, kForever, 4);
  EXPECT_EQ(p.available_at(49), 10);
  EXPECT_EQ(p.available_at(1000000), 6);
  // A 100s window for 8 procs always overlaps t>=50 where only 6
  // remain, so it can never be placed.
  EXPECT_EQ(p.earliest_start(0, 100, 8), kForever);
  // 6 procs fit anywhere.
  EXPECT_EQ(p.earliest_start(0, 100, 6), 0);
}

TEST(Profile, OpenEndedUsageBlocksLateStarts) {
  CapacityProfile p(10);
  p.add_usage(50, kForever, 4);
  EXPECT_EQ(p.earliest_start(0, 50, 8), 0);      // [0,50) ok
  EXPECT_EQ(p.earliest_start(10, 50, 8), kForever);
}

TEST(Profile, CapacityDelta) {
  CapacityProfile p(10);
  p.add_capacity_delta(100, -4);  // outage: 4 nodes down from t=100
  p.add_capacity_delta(200, +4);  // repair
  EXPECT_EQ(p.available_at(50), 10);
  EXPECT_EQ(p.available_at(150), 6);
  EXPECT_EQ(p.available_at(250), 10);
}

TEST(Profile, CompactBeforePreservesFuture) {
  CapacityProfile p(10);
  p.add_usage(0, 100, 3);
  p.add_usage(50, 150, 2);
  const auto avail_at_120 = p.available_at(120);
  const auto avail_at_200 = p.available_at(200);
  p.compact_before(110);
  EXPECT_EQ(p.available_at(120), avail_at_120);
  EXPECT_EQ(p.available_at(200), avail_at_200);
}

TEST(Profile, ZeroDurationAlwaysFits) {
  CapacityProfile p(1);
  p.add_usage(0, kForever, 1);
  EXPECT_TRUE(p.fits(5, 0, 1));
}

TEST(Profile, NegativeCapacityThrows) {
  EXPECT_THROW(CapacityProfile(-1), std::invalid_argument);
}

TEST(Profile, StepCountTracksCanonicalSteps) {
  CapacityProfile p(8);
  EXPECT_EQ(p.step_count(), 0u);
  p.add_usage(10, 20, 2);
  EXPECT_EQ(p.step_count(), 2u);
  // Adjacent equal-availability segments merge: a second usage starting
  // exactly where the first ends with the same procs keeps one boundary.
  p.add_usage(20, 30, 2);
  EXPECT_EQ(p.step_count(), 2u);
  p.remove_usage(10, 20, 2);
  p.remove_usage(20, 30, 2);
  EXPECT_EQ(p.step_count(), 0u);
}

TEST(Profile, CompactDropsStepMadeRedundantByFolding) {
  // A usage ending exactly at the compaction point leaves a step there
  // that restores base availability; once the history before it folds
  // into the base, that step is redundant and must go too.
  CapacityProfile p(10);
  p.add_usage(2, 7, 5);  // steps: {2,5}, {7,10}
  EXPECT_EQ(p.step_count(), 2u);
  p.compact_before(7);
  EXPECT_EQ(p.step_count(), 0u);
  EXPECT_EQ(p.available_at(7), 10);
  EXPECT_EQ(p.available_at(100), 10);
}

TEST(Profile, SameFromComparesOnlyTheFuture) {
  CapacityProfile a(8);
  CapacityProfile b(8);
  a.add_usage(0, 50, 3);   // differs from b only in the past
  a.add_usage(100, 200, 4);
  b.add_usage(100, 200, 4);
  EXPECT_FALSE(a.same_from(b, 0));
  EXPECT_TRUE(a.same_from(b, 50));
  EXPECT_TRUE(a.same_from(b, 150));
  b.add_usage(150, 160, 1);
  EXPECT_FALSE(a.same_from(b, 50));
}

/// earliest_start_lifted's definition: lift the held usage off a copy,
/// then ask earliest_start.
std::int64_t lifted_oracle(const CapacityProfile& p, std::int64_t from,
                           std::int64_t duration, std::int64_t procs,
                           std::int64_t held) {
  CapacityProfile copy = p;
  copy.remove_usage(held, held + duration, procs);
  return copy.earliest_start(from, duration, procs);
}

TEST(Profile, EarliestStartLiftedCompressesPastOwnClaim) {
  CapacityProfile p(10);
  p.add_usage(0, 50, 4);
  p.add_usage(60, 110, 8);  // the held claim
  // With the claim standing, 8 procs for 50 s fit only after it.
  EXPECT_EQ(p.earliest_start(0, 50, 8), 110);
  EXPECT_EQ(p.earliest_start_lifted(0, 50, 8, 60), 50);
  // Nothing held: plain earliest_start.
  EXPECT_EQ(p.earliest_start_lifted(0, 50, 8, kForever), 110);
}

TEST(Profile, EarliestStartLiftedSeesWindowEdgesThatAreNotSteps) {
  // Another usage ends exactly where the held one starts, by the same
  // procs: the canonical form stores no step at 100.
  CapacityProfile p(10);
  p.add_usage(0, 100, 4);
  p.add_usage(100, 150, 4);  // held
  EXPECT_EQ(p.step_count(), 2u);
  EXPECT_EQ(p.earliest_start_lifted(0, 50, 8, 100), 100);
  EXPECT_EQ(lifted_oracle(p, 0, 50, 8, 100), 100);
}

TEST(Profile, EarliestStartLiftedAboveCapacityIsForever) {
  CapacityProfile p(10);
  p.add_usage(5, 25, 12);  // held, regresses the profile below zero
  EXPECT_EQ(p.earliest_start_lifted(0, 20, 12, 5), kForever);
  EXPECT_EQ(p.earliest_start_lifted(10, 20, 12, 5), kForever);
}

TEST(Profile, EarliestStartLiftedMatchesRemoveThenQuery) {
  constexpr std::int64_t kBase = 16;
  util::Rng rng(20260719);
  for (int round = 0; round < 300; ++round) {
    CapacityProfile p(kBase);
    std::vector<std::int64_t> edges = {0};
    const int usages = int(rng.uniform_int(0, 12));
    for (int u = 0; u < usages; ++u) {
      const std::int64_t start = rng.uniform_int(0, 400);
      const std::int64_t end = start + rng.uniform_int(1, 120);
      p.add_usage(start, end, rng.uniform_int(1, 8));
      edges.push_back(start);
      edges.push_back(end);
    }
    // Every fourth profile regresses below zero somewhere, as an outage
    // or an overrun can push the reservation profile.
    if (round % 4 == 0) {
      const std::int64_t start = rng.uniform_int(0, 400);
      const std::int64_t end = start + rng.uniform_int(1, 120);
      p.add_usage(start, end, kBase + rng.uniform_int(1, 8));
      edges.push_back(start);
      edges.push_back(end);
    }
    for (int q = 0; q < 20; ++q) {
      const std::int64_t duration = rng.uniform_int(1, 100);
      // Above capacity one query in five.
      const std::int64_t procs = rng.uniform_int(1, kBase + 4);
      const std::int64_t edge = edges[std::size_t(
          rng.uniform_int(0, std::int64_t(edges.size()) - 1))];
      // The held window starts on a step, ends on one, or sits between.
      std::int64_t held = edge;
      if (q % 3 == 1) held = std::max<std::int64_t>(0, edge - duration);
      if (q % 3 == 2) held = edge + rng.uniform_int(1, 9);
      // `from` before, inside, or past the held window's start.
      const std::int64_t from =
          std::max<std::int64_t>(0, held + rng.uniform_int(-60, 60));
      p.add_usage(held, held + duration, procs);
      ASSERT_EQ(p.earliest_start_lifted(from, duration, procs, held),
                lifted_oracle(p, from, duration, procs, held))
          << "round=" << round << " q=" << q << " from=" << from
          << " held=" << held << " duration=" << duration
          << " procs=" << procs << '\n'
          << p.to_string();
      p.remove_usage(held, held + duration, procs);
    }
  }
}

TEST(Profile, ToStringRendersSteps) {
  CapacityProfile p(4);
  p.add_usage(10, 20, 2);
  const auto s = p.to_string();
  EXPECT_NE(s.find("t>=10: 2"), std::string::npos);
  EXPECT_NE(s.find("t>=20: 4"), std::string::npos);
}

}  // namespace
}  // namespace pjsb::sched
