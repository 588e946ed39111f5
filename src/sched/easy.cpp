#include "sched/easy.hpp"

#include "sched/registry.hpp"

namespace pjsb::sched {

SchedulerInfo easy_scheduler_info() {
  SchedulerInfo info;
  info.name = "easy";
  info.description =
      "EASY backfilling: FIFO with shadow reservations for the queue head";
  info.params = {ParamSpec::integer(
      "reserve_depth",
      "queue-head jobs protected by shadow reservations backfill may not "
      "delay (1 = classic EASY)",
      1, 1, 1 << 20)};
  info.make = +[](const ParamValues& values) -> std::unique_ptr<Scheduler> {
    return std::make_unique<EasyScheduler>(
        int(values.get_int("reserve_depth")));
  };
  return info;
}

std::string EasyScheduler::name() const {
  if (reserve_depth_ == 1) return "easy";
  return "easy reserve_depth=" + std::to_string(reserve_depth_);
}

void EasyScheduler::schedule(SchedulerContext& ctx) {
  const std::int64_t now = ctx.now();
  prune_queue(ctx);
  refresh_profile(now);

  // Annotate-and-start: stamp the reason onto the emitted decision.
  const auto start_as = [&ctx](std::int64_t id, sim::StartProvenance why,
                               std::int64_t detail = -1) {
    ctx.annotate_start(why, detail);
    return ctx.start_job(id);
  };

  // Work on a copy of the maintained base profile; tentative shadow /
  // backfill placements stay local to this pass.
  CapacityProfile profile = profile_;

  // Shadow reservations for the first reserve_depth_ jobs that cannot
  // start now, each at its earliest feasible start given the
  // reservations before it. A job whose earliest start is now starts
  // outright: at the front of the queue that is a queue-order start; a
  // protected job behind a blocked one starts at its shadow slot, a
  // promoted reservation rather than a backfill move. With depth 1 the
  // loop starts the head while it fits and then places the classic
  // single shadow.
  auto it = queue_.begin();
  std::size_t placed = 0;
  while (placed < std::size_t(reserve_depth_) && it != queue_.end()) {
    const QueuedJob& q = *it;
    const std::int64_t t = profile.earliest_start(now, q.estimate, q.procs);
    const bool head = it == queue_.begin();
    if (t == now &&
        start_as(q.id,
                 head ? sim::StartProvenance::kQueueHead
                      : sim::StartProvenance::kReservation,
                 head ? -1 : t)) {
      profile.add_usage(now, now + q.estimate, q.procs);
      note_started(q.id, now, q.estimate, q.procs);
      it = queue_.erase(it);
      continue;  // a started job holds no reservation
    }
    if (t < kForever) profile.add_usage(t, t + q.estimate, q.procs);
    ++placed;
    ++it;
  }

  // Backfill: any later job that fits now without delaying a shadow.
  while (it != queue_.end()) {
    const QueuedJob& q = *it;
    if (profile.fits(now, q.estimate, q.procs) &&
        start_as(q.id, sim::StartProvenance::kBackfill)) {
      profile.add_usage(now, now + q.estimate, q.procs);
      note_started(q.id, now, q.estimate, q.procs);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<std::int64_t> EasyScheduler::predict_start(
    std::int64_t now, std::int64_t procs, std::int64_t estimate) const {
  if (total_nodes_ <= 0) return std::nullopt;
  // Approximate the EASY queue conservatively: place every queued job
  // at its earliest start in FIFO order, then place the hypothetical
  // job. This is the scheduler-assisted wait-time estimate a
  // metacomputing directory service would export (section 3.1). The
  // placements replay on a copy of the maintained base profile — no
  // rebuild per query.
  CapacityProfile profile = profile_;
  for (const QueuedJob& q : queue_) {
    const std::int64_t t =
        profile.earliest_start(now, q.estimate, q.procs);
    if (t < kForever) profile.add_usage(t, t + q.estimate, q.procs);
  }
  const std::int64_t t = profile.earliest_start(now, estimate, procs);
  if (t >= kForever) return std::nullopt;
  return t;
}

}  // namespace pjsb::sched
