// Conservative backfilling: every queued job holds a reservation at its
// earliest feasible start, and backfilling may never delay *any* queued
// job (vs. EASY, which protects only the head). The aggressiveness gap
// between the two is a standing ablation in the literature the paper
// standardizes (experiments E2/E8).
//
// Reservations are *persistent* and compressed one at a time: when
// capacity frees (a job ends early), each queued job is re-placed with
// every other job's claim still standing (one sweep with its own claim
// lifted, see CapacityProfile::earliest_start_lifted), and moves only
// if the new slot is earlier. This is the published compression rule —
// wholesale re-placement looks equivalent but is not: an earlier job
// compressed into a later job's window can push that job past its
// promised start, which the validation fuzzer caught as a
// broken-promise invariant violation. A reservation is abandoned
// (re-placed later) only when its slot became infeasible through a
// base-profile regression — an outage, an accepted external
// reservation, or a running job overrunning its estimate — the
// documented cases where the guarantee cannot hold.
//
// Each pass is one walk over the queue in FIFO order. Held slots are
// compressed only when the base profile changed or a claim was given
// back; on a submission-only pass every standing reservation stands,
// one that came due starts, and only unplaced jobs get a sweep.
//
// `reserve_depth` caps how many queued jobs hold reservations (0 =
// every job, the classic policy): jobs beyond the depth backfill
// opportunistically, sliding the policy toward EASY from the other end
// of the aggressiveness axis.
#pragma once

#include "sched/backfill.hpp"

namespace pjsb::sched {

class ConservativeScheduler final : public BackfillBase {
 public:
  /// `reserve_depth`: queued jobs (FIFO order) granted reservations;
  /// 0 means all of them (classic conservative backfilling).
  explicit ConservativeScheduler(int reserve_depth = 0)
      : reserve_depth_(reserve_depth < 0 ? 0 : reserve_depth) {}

  std::string name() const override;
  void on_attach(SchedulerContext& ctx) override;
  void schedule(SchedulerContext& ctx) override;
  std::optional<std::int64_t> predict_start(
      std::int64_t now, std::int64_t procs, std::int64_t estimate) const override;
  void save_state(sim::snapshot::Writer& w) const override;
  void load_state(sim::snapshot::Reader& r) override;

  int reserve_depth() const { return reserve_depth_; }

 protected:
  void on_base_change(std::int64_t start, std::int64_t end,
                      std::int64_t used) override;

 private:
  /// Move `q`'s claim in full_profile_ to `slot` (kForever = release
  /// it) and record the slot; no-op when the slot is unchanged.
  void move_claim(QueuedJob& q, std::int64_t slot);
  /// profile_ plus every standing claim, built from scratch: the
  /// cross-check's reference and the loader of older snapshots.
  CapacityProfile rebuild_full_profile() const;

  int reserve_depth_ = 0;

  // A queued job's persistent reservation is QueuedJob::slot in queue_:
  // the promised start, granted at submission and only ever compressed
  // earlier (see class comment).

  /// The reservation profile: profile_ plus every standing claim, at
  /// all times. Base changes reach it through on_base_change(); a claim
  /// is added, moved or released only through move_claim() — at
  /// placement, compression, start (the claim becomes the running
  /// usage), and when its job leaves the queue without a start from
  /// this scheduler. Passes compress in place and predict_start queries
  /// it directly. Compacted before `now` every pass.
  CapacityProfile full_profile_{0};
};

}  // namespace pjsb::sched
