// Shortest-job-first (by user estimate). The classic user-centric
// counterpoint to FCFS: it minimizes average wait for short jobs at the
// price of fairness, which is exactly what makes schedulers rank
// differently under response time vs slowdown (experiment E3, claim
// [30] of the paper).
#pragma once

#include <vector>

#include "sched/scheduler.hpp"

namespace pjsb::sched {

/// How equal-estimate jobs are ordered: arrival order (classic),
/// widest-first (drain big jobs while capacity is there) or
/// narrowest-first (maximize packing opportunities).
enum class SjfTieBreak { kFcfs, kWidest, kNarrowest };

class SjfScheduler final : public Scheduler {
 public:
  /// If `allow_fit` is true, when the shortest job does not fit the
  /// scheduler scans for the shortest job that does (non-blocking
  /// variant); otherwise the shortest job blocks (strict SJF).
  explicit SjfScheduler(bool allow_fit = false,
                        SjfTieBreak tie = SjfTieBreak::kFcfs)
      : allow_fit_(allow_fit), tie_(tie) {}

  std::string name() const override;
  void on_submit(SchedulerContext& ctx, std::int64_t job_id) override;
  void on_job_end(SchedulerContext& ctx, std::int64_t job_id) override;
  void schedule(SchedulerContext& ctx) override;
  void save_state(sim::snapshot::Writer& w) const override;
  void load_state(sim::snapshot::Reader& r) override;

 private:
  /// Strict-weak queue order: estimate, then the tie-break policy,
  /// then id (FIFO) as the final arbiter.
  bool precedes(const sim::SimJob& a, std::int64_t a_id,
                const sim::SimJob& b, std::int64_t b_id) const;

  std::vector<std::int64_t> queue_;  ///< kept sorted by precedes()
  bool allow_fit_;
  SjfTieBreak tie_;
};

}  // namespace pjsb::sched
