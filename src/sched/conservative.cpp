#include "sched/conservative.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "sched/registry.hpp"
#include "sim/snapshot/codec.hpp"

namespace pjsb::sched {

SchedulerInfo conservative_scheduler_info() {
  SchedulerInfo info;
  info.name = "conservative";
  info.description =
      "conservative backfilling: every queued job holds a reservation";
  info.aliases = {"cons"};
  info.params = {ParamSpec::integer(
      "reserve_depth",
      "queued jobs granted reservations; jobs beyond the depth backfill "
      "opportunistically (0 = all jobs, the classic policy)",
      0, 0, 1 << 20)};
  info.make = +[](const ParamValues& values) -> std::unique_ptr<Scheduler> {
    return std::make_unique<ConservativeScheduler>(
        int(values.get_int("reserve_depth")));
  };
  return info;
}

std::string ConservativeScheduler::name() const {
  if (reserve_depth_ == 0) return "conservative";
  return "conservative reserve_depth=" + std::to_string(reserve_depth_);
}

void ConservativeScheduler::on_attach(SchedulerContext& ctx) {
  BackfillBase::on_attach(ctx);
  full_profile_ = profile_;
}

void ConservativeScheduler::move_claim(QueuedJob& q, std::int64_t slot) {
  if (slot == q.slot) return;
  if (q.slot < kForever) {
    full_profile_.remove_usage(q.slot, q.slot + q.estimate, q.procs);
  }
  if (slot < kForever) {
    full_profile_.add_usage(slot, slot + q.estimate, q.procs);
  }
  q.slot = slot;
}

void ConservativeScheduler::on_base_change(std::int64_t start,
                                           std::int64_t end,
                                           std::int64_t used) {
  apply_usage(full_profile_, start, end, used);
}

CapacityProfile ConservativeScheduler::rebuild_full_profile() const {
  CapacityProfile profile = profile_;
  for (const QueuedJob& q : queue_) {
    if (q.slot < kForever) {
      profile.add_usage(q.slot, q.slot + q.estimate, q.procs);
    }
  }
  return profile;
}

void ConservativeScheduler::schedule(SchedulerContext& ctx) {
  const std::int64_t now = ctx.now();
  // Jobs that left the queue without a start from this scheduler — a
  // reservation bound to the job started it, or Engine::cancel_job
  // dropped it — give back the claims they held.
  const std::size_t before_prune = queue_.size();
  std::erase_if(queue_, [&](QueuedJob& q) {
    if (ctx.job(q.id).state == sim::JobState::kQueued) return false;
    move_claim(q, kForever);
    return true;
  });
  const bool left_queue = queue_.size() != before_prune;
  refresh_profile(now);  // may flag an overrun extension

  if (cross_checking()) {
    const CapacityProfile rebuilt = rebuild_full_profile();
    if (!full_profile_.same_from(rebuilt, now)) {
      std::ostringstream os;
      os << "ConservativeScheduler: maintained reservation profile "
            "diverged from base + claims at t="
         << now << "\nmaintained:\n"
         << full_profile_.to_string() << "rebuilt:\n"
         << rebuilt.to_string();
      throw std::logic_error(os.str());
    }
  }

  // Annotate-and-start: stamp the reason onto the emitted decision. A
  // started job's claim (moved to `now`) becomes its running usage, so
  // full_profile_ needs no other change.
  const auto start_as = [&](QueuedJob& q, sim::StartProvenance why,
                            std::int64_t detail = -1) {
    ctx.annotate_start(why, detail);
    if (!ctx.start_job(q.id)) return false;
    move_claim(q, now);
    note_started(q.id, now, q.estimate, q.procs);
    return true;
  };

  // Held slots are compressed only on a pass where the base profile's
  // semantics changed or a claim was given back. On any other pass (a
  // pure submission, the common event on a backfill-heavy replay) every
  // standing reservation stands, even one that a re-sweep would move
  // earlier: a compression is one walk in queue order, so a slot freed
  // by a later job's move waits for the next compression. Only
  // reservations that came due and unplaced (new / beyond-depth) jobs
  // need work then.
  const bool compress = consume_base_change() || left_queue;
  if (compress) {
    // A slot that slipped into the past is a promise already void (the
    // start at the reserved time failed on a shrunken machine, or no
    // event landed on the slot at all — possible once kills requeue
    // jobs). A void claim must not stand: with several stale
    // full-machine claims, each would block the others from
    // compressing to `now` and the run could drain its events with the
    // machine idle and jobs still queued. Its holder is re-placed below
    // as a fresh job.
    for (QueuedJob& q : queue_) {
      if (q.slot < now) move_claim(q, kForever);
    }
  }

  std::size_t reserved = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    QueuedJob& q = *it;
    const bool in_depth =
        reserve_depth_ == 0 || reserved < std::size_t(reserve_depth_);
    if (in_depth) {
      // A compression pass re-places a held reservation with every
      // other claim standing: its new slot is the earliest start with
      // its own claim lifted. That is never later than a slot that
      // still fits (earliest_start returns the first start that fits),
      // so a move to a later slot happens only when the promised slot
      // is gone — an outage window opened over it, an accepted external
      // reservation claimed it, or an overrunning job ate it — the
      // documented cases where the promise is void.
      const std::int64_t held = q.slot;
      const std::int64_t t =
          held == kForever
              ? full_profile_.earliest_start(now, q.estimate, q.procs)
          : compress ? full_profile_.earliest_start_lifted(now, q.estimate,
                                                           q.procs, held)
                     : held;
      // Starting from a held reservation that came due (or compressed
      // to now) is a reservation start carrying the promised slot; a
      // first placement that lands on "now" is a queue-order start at
      // the front, a backfill move behind it.
      if (t <= now &&
          start_as(q,
                   held < kForever ? sim::StartProvenance::kReservation
                   : it == queue_.begin()
                       ? sim::StartProvenance::kQueueHead
                       : sim::StartProvenance::kBackfill,
                   held < kForever ? held : -1)) {
        it = queue_.erase(it);
        continue;
      }
      move_claim(q, t);
      ++reserved;  // a started job holds no reservation
      ++it;
    } else if (full_profile_.fits(now, q.estimate, q.procs) &&
               start_as(q, sim::StartProvenance::kBackfill)) {
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  full_profile_.compact_before(now);
}

std::optional<std::int64_t> ConservativeScheduler::predict_start(
    std::int64_t now, std::int64_t procs, std::int64_t estimate) const {
  if (total_nodes_ <= 0) return std::nullopt;
  // Query against the maintained base + queue placements; the
  // hypothetical job only needs one earliest-start sweep.
  const std::int64_t t = full_profile_.earliest_start(now, estimate, procs);
  if (t >= kForever) return std::nullopt;
  return t;
}

void ConservativeScheduler::save_state(sim::snapshot::Writer& w) const {
  BackfillBase::save_state(w);
  std::vector<std::size_t> held = queue_by_id();
  std::erase_if(held,
                [&](std::size_t i) { return queue_[i].slot == kForever; });
  w.u64(held.size());
  for (const std::size_t i : held) {
    w.i64(queue_[i].id);
    w.i64(queue_[i].slot);
  }
  write_profile(w, full_profile_);
  // Format slot of the retired lazy-rebuild flag: the profile written
  // above is always current.
  w.boolean(false);
}

void ConservativeScheduler::load_state(sim::snapshot::Reader& r) {
  BackfillBase::load_state(r);
  // Slots come sorted by id, a subset of the queue: walk both in order.
  const auto by_id = queue_by_id();
  auto next = by_id.begin();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t id = r.i64();
    while (next != by_id.end() && queue_[*next].id < id) ++next;
    if (next == by_id.end() || queue_[*next].id != id) {
      throw std::runtime_error(
          "ConservativeScheduler::load_state: reservation for a job not in "
          "the queue");
    }
    queue_[*next++].slot = r.i64();
  }
  full_profile_ = read_profile(r);
  // Older snapshots may carry a profile flagged stale (a reservation
  // accepted after their last pass): rebuild it once.
  if (r.boolean()) full_profile_ = rebuild_full_profile();
}

}  // namespace pjsb::sched
