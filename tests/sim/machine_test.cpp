#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include "sim/snapshot/codec.hpp"

namespace pjsb::sim {
namespace {

TEST(Machine, InitialState) {
  Machine m(16);
  EXPECT_EQ(m.total_nodes(), 16);
  EXPECT_EQ(m.free_nodes(), 16);
  EXPECT_EQ(m.busy_nodes(), 0);
  EXPECT_EQ(m.down_nodes(), 0);
  EXPECT_EQ(m.up_nodes(), 16);
  EXPECT_THROW(Machine(0), std::invalid_argument);
}

TEST(Machine, AllocateAndRelease) {
  Machine m(8);
  const auto nodes = m.allocate(42, 3);
  ASSERT_TRUE(nodes);
  EXPECT_EQ(nodes->size(), 3u);
  EXPECT_EQ(m.free_nodes(), 5);
  EXPECT_EQ(m.busy_nodes(), 3);
  for (const auto n : *nodes) EXPECT_EQ(m.owner(n), 42);
  m.release(42, *nodes);
  EXPECT_EQ(m.free_nodes(), 8);
}

TEST(Machine, AllocateFailsWhenFull) {
  Machine m(4);
  ASSERT_TRUE(m.allocate(1, 3));
  EXPECT_FALSE(m.allocate(2, 2));
  EXPECT_EQ(m.free_nodes(), 1);  // failed allocation changes nothing
}

TEST(Machine, AllocateZeroThrows) {
  Machine m(4);
  EXPECT_THROW(m.allocate(1, 0), std::invalid_argument);
}

TEST(Machine, ReleaseWrongOwnerThrows) {
  Machine m(4);
  const auto nodes = m.allocate(1, 2);
  EXPECT_THROW(m.release(2, *nodes), std::logic_error);
}

TEST(Machine, TakeDownFreeNode) {
  Machine m(4);
  EXPECT_EQ(m.take_down(0), kFree);
  EXPECT_EQ(m.down_nodes(), 1);
  EXPECT_EQ(m.free_nodes(), 3);
  EXPECT_EQ(m.up_nodes(), 3);
}

TEST(Machine, TakeDownBusyNodeReportsVictim) {
  Machine m(4);
  const auto nodes = m.allocate(7, 2);
  const std::int64_t victim_node = nodes->front();
  EXPECT_EQ(m.take_down(victim_node), 7);
  EXPECT_EQ(m.owner(victim_node), kDown);
  // Releasing the job skips the downed node.
  m.release(7, *nodes);
  EXPECT_EQ(m.free_nodes(), 3);
  EXPECT_EQ(m.down_nodes(), 1);
}

TEST(Machine, TakeDownTwiceIsIdempotent) {
  Machine m(4);
  m.take_down(2);
  EXPECT_EQ(m.take_down(2), kDown);
  EXPECT_EQ(m.down_nodes(), 1);
}

TEST(Machine, BringUpRestoresCapacity) {
  Machine m(4);
  m.take_down(1);
  m.bring_up(1);
  EXPECT_EQ(m.free_nodes(), 4);
  EXPECT_EQ(m.down_nodes(), 0);
  EXPECT_THROW(m.bring_up(1), std::logic_error);  // not down anymore
}

TEST(Machine, AllocationSkipsDownNodes) {
  Machine m(4);
  m.take_down(0);
  m.take_down(1);
  const auto nodes = m.allocate(5, 2);
  ASSERT_TRUE(nodes);
  for (const auto n : *nodes) EXPECT_GE(n, 2);
}

TEST(Machine, AllocationIsFirstFitLowestIds) {
  // The allocator must hand out the lowest-numbered free nodes in
  // increasing order — outage victim selection depends on placement, so
  // this ordering is part of the reproducibility contract.
  Machine m(8);
  const auto a = m.allocate(1, 3);
  ASSERT_TRUE(a);
  EXPECT_EQ(*a, (std::vector<std::int64_t>{0, 1, 2}));
  const auto b = m.allocate(2, 2);
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, (std::vector<std::int64_t>{3, 4}));
  // Release out of order; the next allocation still takes the lowest.
  m.release(1, *a);
  const auto c = m.allocate(3, 4);
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, (std::vector<std::int64_t>{0, 1, 2, 5}));
}

TEST(Machine, ReleaseAfterPartialOutage) {
  // A job loses part of its allocation to an outage: releasing the full
  // node list must silently skip the downed nodes (they belong to the
  // outage until bring_up), free the survivors, and keep every counter
  // consistent.
  Machine m(6);
  const auto nodes = m.allocate(9, 4);  // nodes 0..3
  ASSERT_TRUE(nodes);
  EXPECT_EQ(m.take_down((*nodes)[1]), 9);
  EXPECT_EQ(m.take_down((*nodes)[2]), 9);
  EXPECT_EQ(m.busy_nodes(), 2);
  EXPECT_EQ(m.down_nodes(), 2);

  m.release(9, *nodes);  // must not throw on the two downed nodes
  EXPECT_EQ(m.free_nodes(), 4);   // 0, 3 released + 4, 5 never used
  EXPECT_EQ(m.busy_nodes(), 0);
  EXPECT_EQ(m.down_nodes(), 2);
  EXPECT_EQ(m.owner((*nodes)[1]), kDown);
  EXPECT_EQ(m.owner((*nodes)[2]), kDown);

  // Repair returns the nodes to the free pool as kFree — the old owner
  // was killed at take_down time and has no claim.
  m.bring_up((*nodes)[1]);
  m.bring_up((*nodes)[2]);
  EXPECT_EQ(m.free_nodes(), 6);
  EXPECT_EQ(m.down_nodes(), 0);
  // And they are allocatable again, lowest-first.
  const auto again = m.allocate(10, 6);
  ASSERT_TRUE(again);
  EXPECT_EQ(*again, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
}

// The first-fit answer computed from owner() alone: the `count`
// lowest-numbered free nodes.
std::vector<std::int64_t> lowest_free(const Machine& m, std::int64_t count) {
  std::vector<std::int64_t> nodes;
  for (std::int64_t n = 0; n < m.total_nodes(); ++n) {
    if (std::int64_t(nodes.size()) == count) break;
    if (m.owner(n) == kFree) nodes.push_back(n);
  }
  return nodes;
}

TEST(Machine, ChurnKeepsFreeListConsistent) {
  // Allocate/release/outage churn must never double-allocate a node or
  // lose one, and every allocation must be exactly the lowest free
  // nodes. 130 nodes spans three bitmap words, the last one partial.
  for (const std::int64_t size : {std::int64_t(16), std::int64_t(130)}) {
    SCOPED_TRACE(size);
    Machine m(size);
    std::vector<std::vector<std::int64_t>> held;
    std::int64_t next_job = 1;
    for (int round = 0; round < 50 * int(size / 16); ++round) {
      if (round % 3 != 2) {
        const std::int64_t count = 1 + (round % 5) * (size / 16);
        const auto expected = lowest_free(m, count);
        const auto got = m.allocate(next_job, count);
        if (got) {
          EXPECT_EQ(*got, expected);
          ++next_job;
          held.push_back(*got);
        } else {
          EXPECT_LT(std::int64_t(expected.size()), count);
        }
      } else if (!held.empty()) {
        --next_job;  // most recent allocation belongs to next_job - 1
        m.release(next_job, held.back());
        held.pop_back();
      }
      if (round % 7 == 6) {
        // Anywhere on the machine. A busy node's job is killed, as the
        // engine does (its surviving nodes return); odd rounds leave the
        // node down until a later round hits it again.
        const std::int64_t n = (round * 37) % size;
        const std::int64_t prev = m.take_down(n);
        if (prev >= 0) {
          m.release(prev, held[std::size_t(prev - 1)]);
          held[std::size_t(prev - 1)].clear();
        }
        if (round % 2 == 0) m.bring_up(n);
      }
      // Invariant: counters partition the machine and match owner().
      EXPECT_EQ(m.free_nodes() + m.busy_nodes() + m.down_nodes(),
                m.total_nodes());
      EXPECT_EQ(std::int64_t(lowest_free(m, size).size()), m.free_nodes());
      // Invariant: no node owned by two jobs (owners are per-node, so
      // check each held allocation, job h + 1's, still owns its nodes).
      for (std::size_t h = 0; h < held.size(); ++h) {
        for (const auto n : held[h]) {
          EXPECT_EQ(m.owner(n), std::int64_t(h + 1))
              << "node " << n << " lost its owner";
        }
      }
    }
  }
}

TEST(Machine, SaveLoadAcrossWordBoundary) {
  // Busy and down nodes on both sides of node 64: the restored free
  // bitmap must reproduce the donor's next first-fit allocation.
  Machine donor(130);
  ASSERT_TRUE(donor.allocate(1, 70));  // nodes 0..69
  donor.release(1, std::vector<std::int64_t>{10, 11, 62, 63, 64, 65});
  donor.take_down(66);   // busy -> down
  donor.take_down(61);   // busy -> down
  donor.take_down(100);  // free -> down
  ASSERT_TRUE(donor.allocate(2, 3));  // 10, 11, 62
  snapshot::Writer w;
  donor.save_state(w);

  Machine restored(130);
  snapshot::Reader r(w.bytes());
  restored.load_state(r);
  r.expect_done();
  EXPECT_EQ(restored.free_nodes(), donor.free_nodes());
  EXPECT_EQ(restored.down_nodes(), donor.down_nodes());
  for (std::int64_t n = 0; n < 130; ++n) {
    EXPECT_EQ(restored.owner(n), donor.owner(n)) << "node " << n;
  }
  const auto want = donor.allocate(3, 5);
  const auto got = restored.allocate(3, 5);
  ASSERT_TRUE(want);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(*got, (std::vector<std::int64_t>{63, 64, 65, 70, 71}));
}

}  // namespace
}  // namespace pjsb::sim
