// The backfill schedulers maintain their capacity profile incrementally
// across events instead of rebuilding it per event, and conservative
// backfilling also maintains its reservation profile (base + every
// queued job's claim). These tests force the debug cross-check on (it
// throws if either profile ever diverges from a from-scratch rebuild)
// and drive the schedulers through the situations that mutate the
// profiles: early completions, outage windows (announced and
// surprise), advance reservations (free-standing and bound to a queued
// job), cancellations of claim-holding queued jobs, and
// failure-induced kills with requeue.
#include <gtest/gtest.h>

#include "sched/backfill.hpp"
#include "sched/conservative.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace pjsb::sched {
namespace {

swf::Trace model_trace(std::size_t jobs, std::int64_t nodes, double load,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = nodes;
  config.mean_interarrival = 300;
  auto trace = workload::generate(workload::ModelKind::kLublin99, config, rng);
  return workload::scale_to_load(trace, load, nodes);
}

outage::OutageLog make_outages(std::int64_t nodes, std::int64_t horizon,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  outage::OutageLog log;
  for (int i = 0; i < 6; ++i) {
    outage::OutageRecord rec;
    rec.start_time = rng.uniform_int(1, std::max<std::int64_t>(horizon, 2));
    rec.end_time = rec.start_time + rng.uniform_int(600, 7200);
    // Announce half of them in advance (drain behaviour), surprise the
    // rest.
    rec.announce_time = (i % 2 == 0)
                            ? std::max<std::int64_t>(0, rec.start_time - 1800)
                            : -1;
    rec.type = outage::OutageType::kCpuFailure;
    const std::int64_t first = rng.uniform_int(0, nodes / 2);
    const std::int64_t span = rng.uniform_int(1, nodes / 4);
    for (std::int64_t n = first; n < std::min(first + span, nodes); ++n) {
      rec.components.push_back(n);
    }
    rec.nodes_affected = std::int64_t(rec.components.size());
    log.records.push_back(rec);
  }
  return log;
}

/// Replay with the incremental-vs-rebuild cross-check armed; the
/// scheduler throws std::logic_error on the first divergence, failing
/// the test.
void run_checked(const std::string& scheduler_name, bool with_outages,
                 bool with_reservations) {
  const std::int64_t nodes = 64;
  const auto trace = model_trace(400, nodes, 0.8, 42);

  sim::EngineConfig config;
  config.nodes = nodes;
  auto scheduler = make_scheduler(scheduler_name);
  auto* backfill = dynamic_cast<BackfillBase*>(scheduler.get());
  ASSERT_NE(backfill, nullptr);
  backfill->set_cross_check(true);

  sim::Engine engine(config, std::move(scheduler));
  engine.load_trace(trace);
  if (with_outages) {
    engine.add_outages(make_outages(nodes, trace.horizon(), 7));
  }
  if (with_reservations) {
    util::Rng rng(11);
    for (int i = 0; i < 12; ++i) {
      AdvanceReservation res;
      res.start = rng.uniform_int(1, std::max<std::int64_t>(trace.horizon(), 2));
      res.duration = rng.uniform_int(600, 3600);
      res.procs = rng.uniform_int(nodes / 8, nodes / 2);
      engine.request_reservation(res);  // some may be rejected; fine
    }
  }
  ASSERT_NO_THROW(engine.run());
  EXPECT_GT(engine.completed().size(), 0u);
}

TEST(IncrementalProfile, ConservativeMatchesRebuild) {
  run_checked("conservative", false, false);
}

TEST(IncrementalProfile, EasyMatchesRebuild) {
  run_checked("easy", false, false);
}

TEST(IncrementalProfile, ConservativeWithOutagesMatchesRebuild) {
  run_checked("conservative", true, false);
}

TEST(IncrementalProfile, EasyWithOutagesMatchesRebuild) {
  run_checked("easy", true, false);
}

TEST(IncrementalProfile, ConservativeWithReservationsMatchesRebuild) {
  run_checked("conservative", false, true);
}

TEST(IncrementalProfile, EasyWithEverythingMatchesRebuild) {
  run_checked("easy", true, true);
}

TEST(IncrementalProfile, ConservativeWithEverythingMatchesRebuild) {
  run_checked("conservative", true, true);
}

TEST(IncrementalProfile, ConservativeWithBoundReservationsMatchesRebuild) {
  // Reservations bound to queued jobs (res.job_id): when the window
  // opens the engine starts the job itself, so the job leaves the queue
  // with a claim the scheduler must give back.
  const std::int64_t nodes = 64;
  const auto trace = model_trace(400, nodes, 0.9, 42);

  sim::EngineConfig config;
  config.nodes = nodes;
  auto scheduler = std::make_unique<ConservativeScheduler>();
  scheduler->set_cross_check(true);

  sim::Engine engine(config, std::move(scheduler));
  engine.load_trace(trace);
  // Bind every fifth job to a window some time after it arrives; the
  // job waits in the queue (holding a claim) until the window opens,
  // unless its own claim comes due first.
  std::vector<std::pair<std::int64_t, std::int64_t>> bound;  // id, start
  const auto records = trace.summary_records();
  for (std::size_t i = 10; i < records.size(); i += 5) {
    const sim::SimJob job = sim::SimJob::from_record(records[i]);
    AdvanceReservation res;
    res.start = job.submit + 600 + std::int64_t(i % 7) * 300;
    res.duration = job.estimate;
    res.procs = job.procs;
    res.job_id = job.id;
    if (engine.request_reservation(res)) bound.emplace_back(job.id, res.start);
  }
  ASSERT_FALSE(bound.empty());
  ASSERT_NO_THROW(engine.run());

  std::size_t started_by_window = 0;
  for (const auto& c : engine.completed()) {
    for (const auto& [id, start] : bound) {
      if (c.id == id && c.start == start) ++started_by_window;
    }
  }
  EXPECT_GT(started_by_window, 0u);
}

/// Stepped run that cancels queued jobs between steps: the queue head
/// (which holds a claim at every depth) and, less often, a job further
/// back. The cancel's own pass must give back the claim.
void run_with_cancels(int reserve_depth) {
  const std::int64_t nodes = 64;
  const auto trace = model_trace(400, nodes, 0.9, 17);

  sim::EngineConfig config;
  config.nodes = nodes;
  auto scheduler = std::make_unique<ConservativeScheduler>(reserve_depth);
  scheduler->set_cross_check(true);
  sim::Engine engine(config, std::move(scheduler));
  engine.load_trace(trace);

  std::vector<std::int64_t> ids;
  for (const auto& r : trace.summary_records()) {
    ids.push_back(sim::SimJob::from_record(r).id);
  }
  const auto queued = [&] {
    std::vector<std::int64_t> out;
    for (const std::int64_t id : ids) {
      const sim::SimJob* j = engine.find_job(id);
      if (j && j->state == sim::JobState::kQueued) out.push_back(id);
    }
    return out;
  };

  util::Rng rng(3);
  std::int64_t cancelled = 0;
  const auto drive = [&] {
    for (std::size_t steps = 1; engine.step(); ++steps) {
      if (steps % 25 != 0) continue;
      const auto q = queued();
      if (q.empty()) continue;
      EXPECT_TRUE(engine.cancel_job(q.front()));
      ++cancelled;
      if (steps % 50 == 0 && q.size() > 2) {
        const auto pick =
            std::size_t(rng.uniform_int(1, std::int64_t(q.size()) - 1));
        EXPECT_TRUE(engine.cancel_job(q[pick]));
        ++cancelled;
      }
    }
  };
  ASSERT_NO_THROW(drive());
  EXPECT_GT(cancelled, 10);
  EXPECT_EQ(engine.stats().jobs_dropped, cancelled);
  EXPECT_GT(engine.completed().size(), 0u);
}

TEST(IncrementalProfile, ConservativeCancelsMatchRebuild) {
  run_with_cancels(0);
}

TEST(IncrementalProfile, ConservativeDepthCancelsMatchRebuild) {
  run_with_cancels(2);
}

TEST(IncrementalProfile, StepCountStaysBounded) {
  // Satellite: with per-pass compaction the profile's step count must
  // stay O(running + reservations + outages) — independent of how many
  // jobs have flowed through — so million-job traces run in bounded
  // memory.
  const std::int64_t nodes = 64;
  const auto trace = model_trace(1500, nodes, 0.9, 5);

  sim::EngineConfig config;
  config.nodes = nodes;
  auto scheduler = make_scheduler("conservative");
  auto* backfill = dynamic_cast<BackfillBase*>(scheduler.get());
  ASSERT_NE(backfill, nullptr);

  sim::Engine engine(config, std::move(scheduler));
  engine.load_trace(trace);

  std::size_t max_steps = 0;
  std::size_t max_live = 0;
  while (engine.step()) {
    max_steps = std::max(max_steps, backfill->profile().step_count());
    max_live = std::max(max_live,
                        engine.running_jobs() + engine.queued_jobs());
  }
  EXPECT_GT(engine.completed().size(), 1000u);
  // Each live entity contributes at most two step points (start fold +
  // end), plus a couple of boundary steps from compaction.
  EXPECT_LE(max_steps, 2 * max_live + 4);
  // And the bound is about *running* state: far fewer steps than jobs
  // processed.
  EXPECT_LT(max_steps, engine.completed().size() / 4);
}

}  // namespace
}  // namespace pjsb::sched
