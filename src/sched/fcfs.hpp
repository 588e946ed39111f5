// First-come-first-served: the baseline every scheduler-evaluation
// study includes. Jobs start strictly in arrival order; the head of the
// queue blocks everyone behind it until enough processors free up.
#pragma once

#include <deque>

#include "sched/scheduler.hpp"

namespace pjsb::sched {

class FcfsScheduler final : public Scheduler {
 public:
  std::string name() const override { return "fcfs"; }
  void on_submit(SchedulerContext& ctx, std::int64_t job_id) override;
  void on_job_end(SchedulerContext& ctx, std::int64_t job_id) override;
  void schedule(SchedulerContext& ctx) override;
  void save_state(sim::snapshot::Writer& w) const override;
  void load_state(sim::snapshot::Reader& r) override;

 private:
  std::deque<std::int64_t> queue_;
};

}  // namespace pjsb::sched
