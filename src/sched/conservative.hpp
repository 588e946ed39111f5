// Conservative backfilling: every queued job holds a reservation at its
// earliest feasible start, and backfilling may never delay *any* queued
// job (vs. EASY, which protects only the head). The aggressiveness gap
// between the two is a standing ablation in the literature the paper
// standardizes (experiments E2/E8).
//
// Reservations are *persistent* and compressed one at a time: when
// capacity frees (a job ends early), each queued job is re-placed with
// every other job's claim still standing, and moves only if the new
// slot is earlier. This is the published compression rule — wholesale
// re-placement looks equivalent but is not: an earlier job compressed
// into a later job's window can push that job past its promised start,
// which the validation fuzzer caught as a broken-promise invariant
// violation. A reservation is abandoned (re-placed unconditionally)
// only when its slot became infeasible through a base-profile
// regression — an outage, an accepted external reservation, or a
// running job overrunning its estimate — the documented cases where
// the guarantee cannot hold.
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
  bool try_reserve(SchedulerContext& ctx,
                   const AdvanceReservation& reservation) override;
  std::optional<std::int64_t> predict_start(
      std::int64_t now, std::int64_t procs, std::int64_t estimate) const override;
  void save_state(sim::snapshot::Writer& w) const override;
  void load_state(sim::snapshot::Reader& r) override;

  int reserve_depth() const { return reserve_depth_; }

 private:
  int reserve_depth_ = 0;

  // A queued job's persistent reservation is QueuedJob::slot in queue_:
  // the promised start, granted at submission and only ever compressed
  // earlier (see class comment). It leaves with the job's record.

  /// Base profile + the queue's reservation placements, as left by the
  /// last schedule() pass; predict_start queries it directly instead of
  /// replaying the whole queue per call. An accepted reservation
  /// between events marks it stale (the base changed under the
  /// placements), and the next predict_start rebuilds lazily.
  mutable CapacityProfile full_profile_{0};
  mutable bool full_profile_stale_ = false;
};

}  // namespace pjsb::sched
