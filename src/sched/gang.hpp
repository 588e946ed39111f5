// Gang scheduling with an Ousterhout matrix.
//
// The paper repeatedly invokes gang scheduling ([21], and the
// fine-grain synchronization benefits of [22] in section 2.2). The
// matrix has `slots` rows; each row is a full view of the machine's
// nodes, and a job occupies a set of node-columns in exactly one row.
// Rows are time-sliced round-robin, so with k non-empty rows every job
// progresses at rate 1/k — all of a job's processes are always
// co-scheduled, preserving its internal synchronization structure.
//
// Jobs here are "virtual" from the engine's point of view: the gang
// scheduler does its own space accounting and continuously revises
// completion times as the multiprogramming level changes.
#pragma once

#include <map>
#include <vector>

#include "sched/scheduler.hpp"

namespace pjsb::sched {

class GangScheduler final : public Scheduler {
 public:
  /// `slots`: matrix depth (maximum multiprogramming level per node).
  explicit GangScheduler(int slots = 4);

  std::string name() const override;
  void on_submit(SchedulerContext& ctx, std::int64_t job_id) override;
  void on_job_end(SchedulerContext& ctx, std::int64_t job_id) override;
  void on_job_killed(SchedulerContext& ctx, std::int64_t job_id) override;
  void on_outage_start(SchedulerContext& ctx,
                       const outage::OutageRecord& rec) override;
  void on_outage_end(SchedulerContext& ctx,
                     const outage::OutageRecord& rec) override;
  void schedule(SchedulerContext& ctx) override;
  void save_state(sim::snapshot::Writer& w) const override;
  void load_state(sim::snapshot::Reader& r) override;

  int active_rows() const;

 private:
  struct GangJob {
    std::int64_t id = 0;
    int row = 0;
    std::vector<std::int64_t> columns;  ///< node ids in the row
    double remaining = 0.0;             ///< seconds of dedicated work left
  };

  /// Progress all running jobs to `now` at the current rate.
  void sync(std::int64_t now);
  /// Re-issue end events after a membership change.
  void push_ends(SchedulerContext& ctx);
  bool place_job(SchedulerContext& ctx, std::int64_t job_id);
  void remove_job(std::int64_t job_id);

  int slots_;
  std::vector<std::int64_t> queue_;
  /// Ordered map, not a hash map: sync()/push_ends() iterate jobs_ and
  /// re-issue end events, so iteration order feeds the engine's event
  /// sequence numbers — it must be deterministic and serializable for
  /// snapshot/resume byte-identity.
  std::map<std::int64_t, GangJob> jobs_;
  /// columns_[row][node] = job id or sim::kFree.
  std::vector<std::vector<std::int64_t>> columns_;
  std::vector<bool> node_down_;
  std::int64_t last_sync_ = 0;
};

}  // namespace pjsb::sched
