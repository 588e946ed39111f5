// Batch path: SWF file on disk -> sim::load_trace -> sim::replay ->
// metrics::compute_report.
//
// The untimed run uses only the public one-call API (sinks requested
// through SimulationSpec keys). The traced run replays the same file
// through the public programmatic-scheduler overload with forwarding
// decorators around the scheduler, its SchedulerContext and each sink,
// so every layer's self time comes from spans around calls into that
// layer's public interface.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "core/swf/writer.hpp"
#include "metrics/aggregate.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "sim/replay.hpp"
#include "util/rng.hpp"
#include "validate/invariants.hpp"

namespace e2e {
namespace {

using namespace pjsb;

constexpr std::size_t kJobs = 100000;
constexpr std::int64_t kNodes = 256;
constexpr double kLoad = 0.85;
constexpr int kTraces = 4;

/// Trace k of a run: trace 0 is the seed's own trace (the BENCH_2 trace
/// at the default seed); the others come from independent streams.
std::uint64_t trace_seed(std::uint64_t seed, int k) {
  return k == 0 ? seed
                : util::derive_seed(seed, static_cast<std::uint64_t>(k));
}

/// Completed jobs as the BENCH_2 decision CSV (sorted by id).
std::string decisions_csv(std::vector<sim::CompletedJob> completed) {
  std::sort(completed.begin(), completed.end(),
            [](const sim::CompletedJob& a, const sim::CompletedJob& b) {
              return a.id < b.id;
            });
  std::ostringstream os;
  os << "id,submit,start,end,procs,restarts\n";
  for (const auto& c : completed) {
    os << c.id << ',' << c.submit << ',' << c.start << ',' << c.end << ','
       << c.procs << ',' << c.restarts << '\n';
  }
  return os.str();
}

struct Counters {
  std::int64_t pass_calls = 0;
  std::int64_t useful_passes = 0;
  std::int64_t alloc_calls = 0;
  std::int64_t alloc_nodes = 0;
};

/// Forwarding SchedulerContext: times start_job (allocation plus the
/// engine's start bookkeeping; nested sink spans are subtracted).
class TimedContext final : public sched::SchedulerContext {
 public:
  TimedContext(LayerClock& clock, Counters& counters)
      : clock_(clock), counters_(counters) {}

  void bind(sched::SchedulerContext& base) { base_ = &base; }

  std::int64_t now() const override { return base_->now(); }
  sim::Machine& machine() override { return base_->machine(); }
  const sim::SimJob& job(std::int64_t id) const override {
    return base_->job(id);
  }
  bool start_job(std::int64_t job_id) override {
    ++counters_.alloc_calls;
    counters_.alloc_nodes += base_->job(job_id).procs;
    Span span(clock_, Layer::kAlloc);
    return base_->start_job(job_id);
  }
  void start_job_virtual(std::int64_t job_id, std::int64_t end_time) override {
    base_->start_job_virtual(job_id, end_time);
  }
  void update_job_end(std::int64_t job_id, std::int64_t new_end) override {
    base_->update_job_end(job_id, new_end);
  }
  void kill_running_job(std::int64_t job_id) override {
    base_->kill_running_job(job_id);
  }
  void annotate_start(sim::StartProvenance provenance,
                      std::int64_t detail) override {
    base_->annotate_start(provenance, detail);
  }

 private:
  LayerClock& clock_;
  Counters& counters_;
  sched::SchedulerContext* base_ = nullptr;
};

/// Forwarding Scheduler decorator around a registry scheduler.
class TimedScheduler final : public sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sched::Scheduler> inner, LayerClock& clock,
                 Counters& counters)
      : inner_(std::move(inner)),
        clock_(clock),
        counters_(counters),
        ctx_(clock, counters) {}

  std::string name() const override { return inner_->name(); }
  void on_attach(sched::SchedulerContext& ctx) override {
    inner_->on_attach(bind(ctx));
  }
  void on_submit(sched::SchedulerContext& ctx, std::int64_t job_id) override {
    Span span(clock_, Layer::kSchedSubmit);
    inner_->on_submit(bind(ctx), job_id);
  }
  void on_job_end(sched::SchedulerContext& ctx, std::int64_t job_id) override {
    Span span(clock_, Layer::kSchedJobEnd);
    inner_->on_job_end(bind(ctx), job_id);
  }
  void on_job_killed(sched::SchedulerContext& ctx,
                     std::int64_t job_id) override {
    inner_->on_job_killed(bind(ctx), job_id);
  }
  void on_outage_announce(sched::SchedulerContext& ctx,
                          const outage::OutageRecord& rec) override {
    inner_->on_outage_announce(bind(ctx), rec);
  }
  void on_outage_start(sched::SchedulerContext& ctx,
                       const outage::OutageRecord& rec) override {
    inner_->on_outage_start(bind(ctx), rec);
  }
  void on_outage_end(sched::SchedulerContext& ctx,
                     const outage::OutageRecord& rec) override {
    inner_->on_outage_end(bind(ctx), rec);
  }
  bool try_reserve(sched::SchedulerContext& ctx,
                   const sched::AdvanceReservation& reservation) override {
    return inner_->try_reserve(bind(ctx), reservation);
  }
  std::optional<std::int64_t> predict_start(
      std::int64_t now, std::int64_t procs,
      std::int64_t estimate) const override {
    return inner_->predict_start(now, procs, estimate);
  }
  void schedule(sched::SchedulerContext& ctx) override {
    const std::int64_t starts_before = counters_.alloc_calls;
    {
      Span span(clock_, Layer::kSchedPass);
      inner_->schedule(bind(ctx));
    }
    ++counters_.pass_calls;
    if (counters_.alloc_calls != starts_before) ++counters_.useful_passes;
  }
  void save_state(sim::snapshot::Writer& w) const override {
    inner_->save_state(w);
  }
  void load_state(sim::snapshot::Reader& r) override { inner_->load_state(r); }

 private:
  sched::SchedulerContext& bind(sched::SchedulerContext& ctx) {
    ctx_.bind(ctx);
    return ctx_;
  }

  std::unique_ptr<sched::Scheduler> inner_;
  LayerClock& clock_;
  Counters& counters_;
  TimedContext ctx_;
};

/// Forwarding SimObserver charging every callback to one sink layer.
class TimedObserver final : public sim::SimObserver {
 public:
  TimedObserver(sim::SimObserver& inner, LayerClock& clock, Layer layer)
      : inner_(inner), clock_(clock), layer_(layer) {}

  void on_job_complete(const sim::CompletedJob& job) override {
    Span span(clock_, layer_);
    inner_.on_job_complete(job);
  }
  void on_decision(const sim::Decision& decision) override {
    Span span(clock_, layer_);
    inner_.on_decision(decision);
  }
  void on_outage(const outage::OutageRecord& rec,
                 sim::OutagePhase phase) override {
    Span span(clock_, layer_);
    inner_.on_outage(rec, phase);
  }
  void on_end(const sim::EngineStats& stats) override {
    Span span(clock_, layer_);
    inner_.on_end(stats);
  }
  void on_job_submit(std::int64_t time, const sim::SimJob& job) override {
    Span span(clock_, layer_);
    inner_.on_job_submit(time, job);
  }
  void on_job_kill(std::int64_t time, const sim::SimJob& job,
                   const sim::KillInfo& info) override {
    Span span(clock_, layer_);
    inner_.on_job_kill(time, job, info);
  }
  void on_job_restore(std::int64_t time, const sim::SimJob& job,
                      std::int64_t resumed_work) override {
    Span span(clock_, layer_);
    inner_.on_job_restore(time, job, resumed_work);
  }
  void on_job_drop(std::int64_t time, const sim::SimJob& job,
                   sim::DropReason reason) override {
    Span span(clock_, layer_);
    inner_.on_job_drop(time, job, reason);
  }
  void on_step(const sim::StepSnapshot& snapshot) override {
    Span span(clock_, layer_);
    inner_.on_step(snapshot);
  }

 private:
  sim::SimObserver& inner_;
  LayerClock& clock_;
  Layer layer_;
};

struct SinkPaths {
  std::string trace;
  std::string timeseries;
};

/// What one pass over the pipeline produced.
struct Pass {
  double wall_s = 0.0;
  std::size_t records = 0;
  std::size_t parse_errors = 0;
  std::int64_t completed = 0;
  std::size_t report_jobs = 0;
  std::string decisions_sha;
  std::string sinks_sha;  ///< "" without sinks
  std::int64_t sink_bytes = 0;
  std::int64_t events = 0;
};

std::string sinks_digest(const SinkPaths& paths, std::int64_t* bytes) {
  std::int64_t trace_bytes = 0;
  std::int64_t series_bytes = 0;
  std::string digest = sha256_file(paths.trace, &trace_bytes) + ":" +
                       sha256_file(paths.timeseries, &series_bytes);
  *bytes = trace_bytes + series_bytes;
  return digest;
}

void fill(Pass& pass, const swf::ReadResult& read,
          const sim::ReplayResult& replayed,
          const metrics::MetricsReport& report) {
  pass.records = read.trace.records.size();
  pass.parse_errors = read.errors.size();
  pass.completed = replayed.stats.jobs_completed;
  pass.report_jobs = report.jobs;
  pass.events = replayed.stats.events_processed;
  pass.decisions_sha = sha256_hex(decisions_csv(replayed.completed));
}

/// Untimed pass: the public one-call API, sinks requested by spec keys.
Pass run_untimed(const std::string& file, const std::string& scheduler,
                 const SinkPaths* sinks) {
  const auto start = Clock::now();
  const auto read = sim::load_trace(file, sim::SimulationSpec{});
  auto spec = sim::SimulationSpec{}.with_scheduler(scheduler);
  if (sinks) spec.with_trace(sinks->trace).with_timeseries(sinks->timeseries);
  const auto replayed = sim::replay(read.trace, spec);
  const auto report =
      metrics::compute_report(replayed.completed, replayed.stats);
  Pass pass;
  pass.wall_s = seconds_since(start);
  fill(pass, read, replayed, report);
  if (sinks) pass.sinks_sha = sinks_digest(*sinks, &pass.sink_bytes);
  return pass;
}

struct TracedPass {
  Pass pass;
  double layer_self[static_cast<int>(Layer::kCount)] = {};
  Counters counters;
  std::int64_t file_bytes = 0;
};

/// Traced pass: the same pipeline with a span around every layer call.
TracedPass run_traced(const std::string& file, const std::string& scheduler,
                      const SinkPaths* sinks) {
  TracedPass out;
  LayerClock clock;
  const auto start = Clock::now();

  swf::ReadResult read;
  {
    Span span(clock, Layer::kIngest);
    read = sim::load_trace(file, sim::SimulationSpec{});
  }
  const auto spec = sim::SimulationSpec{}.with_scheduler(scheduler);
  auto inner = sched::make_scheduler(scheduler);
  const sched::Scheduler& watched = *inner;
  auto timed =
      std::make_unique<TimedScheduler>(std::move(inner), clock, out.counters);

  // The sinks SinkSet would build, constructed by hand so each can be
  // wrapped; they watch the inner scheduler, so their output matches
  // the untimed run byte for byte.
  std::ofstream trace_os;
  std::ofstream series_os;
  std::unique_ptr<obs::JsonlTraceWriter> writer;
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  std::unique_ptr<TimedObserver> timed_writer;
  std::unique_ptr<TimedObserver> timed_sampler;
  sim::ReplayHooks hooks;
  if (sinks) {
    {
      Span span(clock, Layer::kSinkTrace);
      trace_os.open(sinks->trace, std::ios::out | std::ios::trunc);
      obs::TraceWriterOptions options;
      options.scheduler = watched.name();
      options.nodes =
          sim::spec_engine_config(
              spec, read.trace.header.max_nodes.value_or(sim::kDefaultNodes))
              .nodes;
      writer = std::make_unique<obs::JsonlTraceWriter>(trace_os, options);
      writer->watch(watched);
    }
    {
      Span span(clock, Layer::kSinkSeries);
      series_os.open(sinks->timeseries, std::ios::out | std::ios::trunc);
      sampler = std::make_unique<obs::TimeSeriesSampler>();
    }
    timed_writer =
        std::make_unique<TimedObserver>(*writer, clock, Layer::kSinkTrace);
    timed_sampler =
        std::make_unique<TimedObserver>(*sampler, clock, Layer::kSinkSeries);
    hooks.observe(*timed_writer).observe(*timed_sampler);
  }

  sim::ReplayResult replayed;
  {
    Span span(clock, Layer::kEngine);
    replayed = sim::replay(read.trace, std::move(timed), spec, hooks);
  }
  if (sinks) {
    {
      Span span(clock, Layer::kSinkTrace);
      trace_os.close();
    }
    {
      Span span(clock, Layer::kSinkSeries);
      sampler->write_csv(series_os);
      series_os.close();
    }
  }
  metrics::MetricsReport report;
  {
    Span span(clock, Layer::kMetrics);
    report = metrics::compute_report(replayed.completed, replayed.stats);
  }
  out.pass.wall_s = seconds_since(start);

  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    out.layer_self[i] = clock.self_s(static_cast<Layer>(i));
  }
  fill(out.pass, read, replayed, report);
  if (sinks) out.pass.sinks_sha = sinks_digest(*sinks, &out.pass.sink_bytes);
  std::error_code ec;
  out.file_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(file, ec));
  return out;
}

/// Checks every pass must meet, against the first pass of the run.
void check_pass(Result& result, const Pass& pass, const Pass& reference,
                const std::string& what) {
  const bool ok = pass.parse_errors == 0 && pass.records == kJobs &&
                  pass.completed == static_cast<std::int64_t>(kJobs) &&
                  pass.report_jobs == kJobs &&
                  pass.decisions_sha == reference.decisions_sha &&
                  pass.sinks_sha == reference.sinks_sha;
  result.check(ok, what + ": records/completions/report or digests differ");
}

/// One replay under the invariant checker (outside every timed
/// region): capacity, lifecycle, policy-promise and conservation
/// contracts, and the same decisions as the measured passes.
void check_invariants(Result& result, const swf::Trace& trace,
                      const std::string& scheduler,
                      const std::string& decisions_sha) {
  validate::CheckerOptions options;
  options.nodes =
      trace.header.max_nodes.value_or(sim::kDefaultNodes);
  options.scheduler = scheduler;
  validate::InvariantChecker checker(options);
  auto instance = sched::make_scheduler(scheduler);
  checker.watch(*instance);
  const auto replayed =
      sim::replay(trace, std::move(instance),
                  sim::SimulationSpec{}.with_scheduler(scheduler),
                  sim::ReplayHooks{}.observe(checker));
  result.check(checker.clean(), "invariant checker: " + checker.summary());
  result.check(sha256_hex(decisions_csv(replayed.completed)) == decisions_sha,
               "invariant-checked replay decisions differ");
}

}  // namespace

int run_batch(const Options& options, Result& result) {
  const bool sinks_on = options.workload == "batch_easy_traced";
  const std::string scheduler = sinks_on ? "easy" : "conservative";
  // The end-to-end run cycles over several traces so one unusually
  // light or heavy trace does not decide the figure; the traced run
  // compares neighbouring passes of trace 0 only.
  const int traces = options.trace ? 1 : kTraces;

  // Set-up: generate each trace and write it to its SWF file.
  std::vector<double> setup;
  std::vector<std::string> files;
  swf::Trace first_trace;
  for (int k = 0; k < traces; ++k) {
    const auto start = Clock::now();
    auto trace =
        lublin_trace(trace_seed(options.seed, k), kJobs, kNodes, kLoad);
    files.push_back("workload-" + std::to_string(k) + ".swf");
    const bool written = swf::write_swf_file(files.back(), trace);
    setup.push_back(seconds_since(start));
    if (!written) {
      std::cerr << "e2ebench: cannot write " << files.back() << "\n";
      return 2;
    }
    if (k == 0) first_trace = std::move(trace);
  }

  const SinkPaths untimed_sinks{"untimed.trace.jsonl", "untimed.ts.csv"};
  const SinkPaths traced_sinks{"traced.trace.jsonl", "traced.ts.csv"};
  const SinkPaths* untimed_paths = sinks_on ? &untimed_sinks : nullptr;
  const SinkPaths* traced_paths = sinks_on ? &traced_sinks : nullptr;

  // Measure: repeat the whole pipeline, trace after trace, until the
  // time budget is spent and every trace ran at least twice.
  std::vector<Pass> untimed;
  std::vector<TracedPass> traced;
  double peak_rss = 0.0;
  const auto budget_start = Clock::now();
  while (untimed.size() < 2 * files.size() ||
         seconds_since(budget_start) < options.seconds) {
    const auto& file = files[untimed.size() % files.size()];
    untimed.push_back(run_untimed(file, scheduler, untimed_paths));
    if (options.trace) {
      traced.push_back(run_traced(file, scheduler, traced_paths));
    }
    // Peak RSS after one pass over every trace: the heap keeps growing
    // slowly over later passes, so a figure taken at the end would
    // depend on how many passes fit the time budget.
    if (untimed.size() == files.size()) peak_rss = peak_rss_mb();
  }

  // Every pass of a trace must match that trace's first pass.
  for (std::size_t i = 0; i < untimed.size(); ++i) {
    check_pass(result, untimed[i], untimed[i % files.size()],
               "untimed pass " + std::to_string(i));
  }
  const Pass& reference = untimed.front();
  for (std::size_t i = 0; i < traced.size(); ++i) {
    check_pass(result, traced[i].pass, reference,
               "traced pass " + std::to_string(i));
  }
  if (!options.pin.empty()) {
    result.check(reference.decisions_sha == options.pin,
                 "decision CSV sha256 " + reference.decisions_sha +
                     " != pinned " + options.pin);
  }
  check_invariants(result, first_trace, scheduler, reference.decisions_sha);

  // wall_s: each trace's fastest pass (the one least disturbed by other
  // load on the host), averaged over the traces.
  std::vector<double> walls;
  std::vector<double> fastest(files.size(), 0.0);
  for (std::size_t i = 0; i < untimed.size(); ++i) {
    walls.push_back(untimed[i].wall_s);
    double& best = fastest[i % files.size()];
    if (best == 0.0 || untimed[i].wall_s < best) best = untimed[i].wall_s;
  }
  double wall = 0.0;
  for (const double best : fastest) {
    wall += best / static_cast<double>(fastest.size());
  }
  result.note("passes", static_cast<double>(untimed.size()), "count");
  result.note("traces", static_cast<double>(files.size()), "count");
  result.note("wall_s.median_pass", median(walls), "s");
  result.samples["wall_s"] = walls;
  result.samples["setup_s"] = setup;
  result.info["decisions_sha256"] = reference.decisions_sha;
  if (sinks_on) result.info["sinks_sha256"] = reference.sinks_sha;

  if (!options.trace) {
    result.set("wall_s", wall, "s");
    result.set("setup_s", median(setup), "s");
    result.set("peak_rss_mb", peak_rss, "MB");
    result.set("ops_per_s", static_cast<double>(kJobs) / wall, "1/s");
    return 0;
  }

  // Per-layer metrics: the median of each quantity over traced passes.
  const auto med = [&](auto&& get) {
    std::vector<double> values;
    for (const auto& t : traced) values.push_back(get(t));
    return median(values);
  };
  double self_s[static_cast<int>(Layer::kCount)] = {};
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    self_s[i] = med([i](const TracedPass& t) { return t.layer_self[i]; });
  }
  const auto self = [&](Layer layer) {
    return self_s[static_cast<int>(layer)];
  };
  const double traced_wall =
      med([](const TracedPass& t) { return t.pass.wall_s; });
  const auto& counters = traced.front().counters;
  const double file_mb = static_cast<double>(traced.front().file_bytes) / 1e6;

  result.set("ingest.s", self(Layer::kIngest), "s");
  result.set("ingest.mb_per_s", file_mb / self(Layer::kIngest), "MB/s");
  result.set("ingest.records", static_cast<double>(reference.records),
             "count");
  result.set("sched.pass_calls", static_cast<double>(counters.pass_calls),
             "count");
  result.set("sched.pass_self_s", self(Layer::kSchedPass), "s");
  result.set("sched.submit_s", self(Layer::kSchedSubmit), "s");
  result.set("sched.job_end_s", self(Layer::kSchedJobEnd), "s");
  result.set("sched.pass_useful_ratio",
             static_cast<double>(counters.useful_passes) /
                 static_cast<double>(std::max<std::int64_t>(
                     1, counters.pass_calls)),
             "ratio");
  result.set("alloc.calls", static_cast<double>(counters.alloc_calls),
             "count");
  result.set("alloc.nodes", static_cast<double>(counters.alloc_nodes),
             "count");
  result.set("alloc.self_s", self(Layer::kAlloc), "s");
  result.set("sink.trace.s", self(Layer::kSinkTrace), "s");
  result.set("sink.timeseries.s", self(Layer::kSinkSeries), "s");
  result.set("sink.bytes", static_cast<double>(reference.sink_bytes), "bytes");
  result.set("engine.events", static_cast<double>(reference.events), "count");
  result.set("engine.self_s", self(Layer::kEngine), "s");
  result.set("metrics.report_s", self(Layer::kMetrics), "s");

  const double coverage = med([](const TracedPass& t) {
    double sum = 0.0;
    for (const double s : t.layer_self) sum += s;
    return sum / t.pass.wall_s;
  });
  result.set("layers.coverage", coverage, "ratio");
  result.check(coverage > 0.95 && coverage < 1.05,
               "layers.coverage " + std::to_string(coverage) +
                   " is not within 5% of 1.0");
  std::vector<double> overheads;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    overheads.push_back(traced[i].pass.wall_s / untimed[i].wall_s);
  }
  result.set("trace.overhead", median(overheads), "ratio");

  // Each layer's share of the traced wall, and the layer table.
  const auto share = [&](std::initializer_list<Layer> layers) {
    double sum = 0.0;
    for (const Layer layer : layers) sum += self(layer);
    return sum / traced_wall;
  };
  result.set("ingest.share", share({Layer::kIngest}), "ratio");
  result.set("engine.share", share({Layer::kEngine}), "ratio");
  result.set("sched.share",
             share({Layer::kSchedPass, Layer::kSchedSubmit,
                    Layer::kSchedJobEnd}),
             "ratio");
  result.set("alloc.share", share({Layer::kAlloc}), "ratio");
  result.set("sink.share", share({Layer::kSinkTrace, Layer::kSinkSeries}),
             "ratio");
  result.set("metrics.share", share({Layer::kMetrics}), "ratio");
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    result.layers.emplace_back(layer_name(static_cast<Layer>(i)), self_s[i]);
  }
  result.layers_total_s = traced_wall;
  result.note("traced.wall_s", traced_wall, "s");
  return 0;
}

}  // namespace e2e
