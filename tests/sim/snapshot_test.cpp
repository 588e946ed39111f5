// Snapshot/restore determinism: freezing a run mid-flight and resuming
// from the bytes must reproduce the uninterrupted run's decision trace
// byte for byte — for every registered scheduler spec, at several event
// boundaries, with and without fault injection. The decision trace pins
// the policy's observable behaviour exactly (validate/decisions.hpp),
// so byte-identical CSVs mean byte-identical simulations.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault/fault.hpp"
#include "sim/replay.hpp"
#include "sim/snapshot/codec.hpp"
#include "sim/snapshot/snapshot.hpp"
#include "validate/decisions.hpp"
#include "validate/fuzzer.hpp"

namespace pjsb::sim {
namespace {

constexpr std::uint64_t kSeed = 20260808;
constexpr std::size_t kJobs = 120;
constexpr std::int64_t kNodes = 32;

/// The fault variant every spec is also exercised under: aggressive
/// MTBF so the small fuzz workload actually sees crashes, plus
/// checkpointing and a retry limit so the recovery paths serialize.
SimulationSpec crashy(SimulationSpec spec) {
  return spec.with_faults(7, /*mtbf=*/9000, /*repair=*/600)
      .with_checkpointing(300, 20, 40)
      .with_retry(3);
}

/// Build the engine exactly as replay() would (same config mapping,
/// same seeded crash schedule) so interrupted and uninterrupted runs
/// share every input.
std::unique_ptr<Engine> make_engine(const swf::Trace& trace,
                                    const SimulationSpec& spec) {
  const auto config = spec_engine_config(
      spec, trace.header.max_nodes.value_or(kDefaultNodes));
  auto engine = std::make_unique<Engine>(
      config, sched::make_scheduler(spec.scheduler));
  if (spec.faults != 0) {
    const auto crashes = fault::generate_crashes(
        spec.fault_model(), trace.horizon(), config.nodes);
    engine->add_outages(crashes);
  }
  return engine;
}

std::string uninterrupted_csv(const swf::Trace& trace,
                              const SimulationSpec& spec) {
  auto engine = make_engine(trace, spec);
  validate::DecisionRecorder recorder;
  engine->add_observer(recorder);
  engine->load_trace(trace);
  engine->run();
  return validate::decisions_to_csv(recorder.decisions());
}

/// Run to `cut` sim-seconds, snapshot, restore from the bytes, finish
/// on the clone; returns the combined decision CSV (donor prefix +
/// clone suffix). Also checks that re-snapshotting the freshly restored
/// clone reproduces the donor's bytes — the format is canonical, so a
/// restore loses nothing.
std::string interrupted_csv(const swf::Trace& trace,
                            const SimulationSpec& spec, std::int64_t cut) {
  auto donor = make_engine(trace, spec);
  validate::DecisionRecorder prefix;
  donor->add_observer(prefix);
  donor->load_trace(trace);
  while (true) {
    const auto t = donor->next_event_time();
    if (!t || *t > cut) break;
    donor->step();
  }
  const std::string bytes = donor->snapshot();

  auto clone = Engine::restore(bytes);
  EXPECT_FALSE(clone->needs_job_source());
  EXPECT_EQ(clone->snapshot(), bytes)
      << spec.scheduler << ": restore->snapshot not canonical at t=" << cut;

  validate::DecisionRecorder suffix;
  clone->add_observer(suffix);
  clone->run();

  auto all = prefix.decisions();
  all.insert(all.end(), suffix.decisions().begin(),
             suffix.decisions().end());
  return validate::decisions_to_csv(all);
}

TEST(Snapshot, ResumeIsByteIdenticalForEveryRegistrySpec) {
  const auto trace = validate::fuzz_workload(kSeed, kJobs, kNodes);
  const auto specs =
      validate::enumerate_scheduler_specs(sched::Registry::global());
  ASSERT_FALSE(specs.empty());
  const std::int64_t horizon = trace.horizon();

  for (const auto& spec_str : specs) {
    for (const bool faults : {false, true}) {
      auto spec = SimulationSpec{}.with_scheduler(spec_str);
      if (faults) spec = crashy(spec);
      const auto golden = uninterrupted_csv(trace, spec);
      for (const double fraction : {0.25, 0.5, 0.75}) {
        const auto cut = std::int64_t(double(horizon) * fraction);
        const auto resumed = interrupted_csv(trace, spec, cut);
        EXPECT_EQ(validate::diff_decision_csv(golden, resumed), "")
            << spec_str << (faults ? " +faults" : "")
            << " diverges when snapshotted at t=" << cut;
      }
    }
  }
}

/// Bound the history at `bound_at`, keep stepping, snapshot at
/// `cut`, restore, finish on the clone; returns the combined CSV.
std::string bounded_csv(const swf::Trace& trace, const SimulationSpec& spec,
                        std::int64_t bound_at, std::int64_t cut) {
  auto donor = make_engine(trace, spec);
  validate::DecisionRecorder prefix;
  donor->add_observer(prefix);
  donor->load_trace(trace);
  const auto step_through = [&](std::int64_t t_max) {
    while (true) {
      const auto t = donor->next_event_time();
      if (!t || *t > t_max) break;
      donor->step();
    }
  };
  step_through(bound_at);
  const std::int64_t completed = donor->stats().jobs_completed;
  const auto released = donor->bound_history();
  EXPECT_TRUE(donor->completed().empty());
  EXPECT_GE(std::int64_t(released.size()), completed);
  for (const auto& job : released) {
    EXPECT_EQ(job.state, JobState::kFinished);
    EXPECT_EQ(donor->find_job(job.id), nullptr);
  }
  step_through(cut);

  const std::string bytes = donor->snapshot();
  auto clone = Engine::restore(bytes);
  EXPECT_EQ(clone->snapshot(), bytes)
      << spec.scheduler << ": bounded snapshot not canonical at t=" << cut;
  validate::DecisionRecorder suffix;
  clone->add_observer(suffix);
  clone->run();
  EXPECT_TRUE(clone->completed().empty());

  auto all = prefix.decisions();
  all.insert(all.end(), suffix.decisions().begin(),
             suffix.decisions().end());
  return validate::decisions_to_csv(all);
}

TEST(Snapshot, BoundHistoryMidRunKeepsEveryDecision) {
  // Switching a retain-history run to bounded history mid-flight, then
  // snapshotting and resuming the bounded engine, must reproduce the
  // uninterrupted retain-history decision trace byte for byte.
  const auto trace = validate::fuzz_workload(kSeed + 4, kJobs, kNodes);
  const auto specs =
      validate::enumerate_scheduler_specs(sched::Registry::global());
  const std::int64_t horizon = trace.horizon();
  for (const auto& spec_str : specs) {
    for (const bool faults : {false, true}) {
      auto spec = SimulationSpec{}.with_scheduler(spec_str);
      if (faults) spec = crashy(spec);
      const auto golden = uninterrupted_csv(trace, spec);
      const auto bounded = bounded_csv(trace, spec, horizon / 3,
                                       2 * horizon / 3);
      EXPECT_EQ(validate::diff_decision_csv(golden, bounded), "")
          << spec_str << (faults ? " +faults" : "")
          << " diverges after bound_history()";
    }
  }
}

TEST(Snapshot, BoundedSnapshotHoldsOnlyLiveJobs) {
  const auto trace = validate::fuzz_workload(kSeed + 5, 400, kNodes);
  const auto spec = SimulationSpec{}.with_scheduler("conservative");
  auto engine = make_engine(trace, spec);
  engine->load_trace(trace);
  engine->run_until(trace.horizon() / 2);
  const auto full = engine->snapshot().size();
  engine->bound_history();
  const auto bounded = engine->snapshot().size();
  EXPECT_LT(bounded, full);
  // A second call finds nothing left to release.
  EXPECT_TRUE(engine->bound_history().empty());
  EXPECT_EQ(engine->snapshot().size(), bounded);
}

TEST(Snapshot, RoundTripsThroughTheFileCodec) {
  const auto trace = validate::fuzz_workload(kSeed + 1, 60, kNodes);
  const auto spec = SimulationSpec{}.with_scheduler("easy");
  auto donor = make_engine(trace, spec);
  donor->load_trace(trace);
  for (int i = 0; i < 50 && donor->step(); ++i) {
  }
  const auto bytes = donor->snapshot();
  const auto path = testing::TempDir() + "pjsb_snapshot_roundtrip.snap";
  snapshot::write_file(path, bytes);
  EXPECT_EQ(snapshot::read_file(path), bytes);
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsCorruptHeaderAndTruncation) {
  const auto trace = validate::fuzz_workload(kSeed + 2, 40, kNodes);
  auto donor = make_engine(trace, SimulationSpec{}.with_scheduler("fcfs"));
  donor->load_trace(trace);
  donor->run_until(trace.horizon() / 2);
  const auto bytes = donor->snapshot();

  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)Engine::restore(bad_magic), std::runtime_error);

  auto bad_version = bytes;
  bad_version[8] = char(0xee);  // version field follows the magic
  EXPECT_THROW((void)Engine::restore(bad_version), std::runtime_error);

  const auto truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW((void)Engine::restore(truncated), std::runtime_error);

  auto trailing = bytes;
  trailing.push_back('\0');
  EXPECT_THROW((void)Engine::restore(trailing), std::runtime_error);

  // The source cursor records the closed-loop history bound, a build
  // constant: a snapshot written under another bound does not restore.
  snapshot::Writer cursor;
  cursor.u64(std::numeric_limits<std::uint64_t>::max());  // eager lookahead
  cursor.u64(0);                                           // max_jobs
  cursor.u64(Engine::kClosedLoopHistory);
  const auto at = bytes.find(cursor.bytes());
  ASSERT_NE(at, std::string::npos);
  snapshot::Writer other;
  other.u64(Engine::kClosedLoopHistory / 2);
  auto other_bound = bytes;
  other_bound.replace(at + 16, 8, other.bytes());
  EXPECT_THROW((void)Engine::restore(other_bound), std::runtime_error);
}

TEST(Snapshot, StreamingSnapshotDemandsItsSourceBack) {
  // A snapshot taken while a pull source is attached must flag that it
  // needs the source back (needs_job_source), and must continue exactly
  // where the donor's cursor stood once resume_job_source re-attaches it.
  const auto trace = validate::fuzz_workload(kSeed + 3, 80, kNodes);
  swf::TraceSource donor_source(trace);
  const auto config = spec_engine_config(
      SimulationSpec{}.with_scheduler("easy"),
      trace.header.max_nodes.value_or(kDefaultNodes));
  Engine donor(config, sched::make_scheduler("easy"));
  JobSourceOptions options;
  options.lookahead = 16;
  donor.set_job_source(donor_source, options);
  for (int i = 0; i < 40 && donor.step(); ++i) {
  }
  const auto bytes = donor.snapshot();

  auto clone = Engine::restore(bytes);
  ASSERT_TRUE(clone->needs_job_source());
  swf::TraceSource clone_source(trace);
  clone->resume_job_source(clone_source);
  EXPECT_FALSE(clone->needs_job_source());

  // Both finish identically: same completion count and final clock.
  validate::DecisionRecorder donor_rest;
  donor.add_observer(donor_rest);
  donor.run();
  validate::DecisionRecorder clone_rest;
  clone->add_observer(clone_rest);
  clone->run();
  EXPECT_EQ(validate::decisions_to_csv(donor_rest.decisions()),
            validate::decisions_to_csv(clone_rest.decisions()));
  EXPECT_EQ(donor.stats().jobs_completed, clone->stats().jobs_completed);
  EXPECT_EQ(donor.source_pulled(), clone->source_pulled());
}

}  // namespace
}  // namespace pjsb::sim
