#include "meta/site.hpp"

#include "sched/registry.hpp"
#include "workload/scale.hpp"

namespace pjsb::meta {

Site::Site(const SiteConfig& config) : config_(config) {
  auto scheduler = sched::make_scheduler(config.scheduler);
  backfill_ = dynamic_cast<const sched::BackfillBase*>(scheduler.get());

  sim::EngineConfig ec;
  ec.nodes = config.nodes;
  engine_ = std::make_unique<sim::Engine>(ec, std::move(scheduler));

  // Background workload at the configured offered load.
  util::Rng rng(config.seed);
  workload::ModelConfig mc;
  mc.jobs = config.background_jobs;
  mc.machine_nodes = config.nodes;
  auto trace = workload::generate(config.background_model, mc, rng);
  trace = workload::scale_to_load(trace, config.background_load,
                                  config.nodes);
  engine_->load_trace(trace);

  completion_filter_.job_complete = [this](const sim::CompletedJob& job) {
    if (meta_observer_ && meta_jobs_.count(job.id)) meta_observer_(job);
  };
  engine_->add_observer(completion_filter_);
}

std::optional<std::int64_t> Site::predicted_wait(
    std::int64_t procs, std::int64_t estimate) const {
  const auto start = engine_->scheduler().predict_start(engine_->now(),
                                                        procs, estimate);
  if (!start) return std::nullopt;
  return *start - engine_->now();
}

std::optional<std::int64_t> Site::earliest_reservation(
    std::int64_t from, std::int64_t duration, std::int64_t procs) const {
  if (!backfill_ || procs > config_.nodes) return std::nullopt;
  const std::int64_t t = backfill_->earliest_reservation_start(
      engine_->now(), from, duration, procs);
  if (t >= sched::kForever) return std::nullopt;
  return t;
}

std::int64_t Site::submit_meta_job(std::int64_t submit_time,
                                   std::int64_t procs, std::int64_t runtime,
                                   std::int64_t estimate) {
  sim::SimJob job;
  job.id = next_meta_id_++;
  job.submit = std::max(submit_time, engine_->now());
  job.procs = procs;
  job.runtime = runtime;
  job.estimate = std::max(estimate, runtime);
  job.queue_id = 2;  // convention: meta queue
  const std::int64_t id = engine_->submit_job(job);
  meta_jobs_.insert(id);
  return id;
}

std::optional<std::int64_t> Site::reserve_meta_job(std::int64_t start,
                                                   std::int64_t procs,
                                                   std::int64_t runtime,
                                                   std::int64_t estimate) {
  // All-or-nothing: commit the reservation first, only then submit the
  // attached job (timed to enter the queue exactly when the window
  // opens — the engine orders submissions before reservation starts).
  const std::int64_t id = next_meta_id_;
  sched::AdvanceReservation res;
  res.start = start;
  res.duration = std::max(estimate, runtime);
  res.procs = procs;
  res.job_id = id;
  if (!engine_->request_reservation(res)) return std::nullopt;
  ++next_meta_id_;

  sim::SimJob job;
  job.id = id;
  job.submit = std::max(start, engine_->now());
  job.procs = procs;
  job.runtime = runtime;
  job.estimate = std::max(estimate, runtime);
  job.queue_id = 2;
  engine_->submit_job(job);
  meta_jobs_.insert(id);
  return id;
}

void Site::set_meta_completion_observer(
    std::function<void(const sim::CompletedJob&)> fn) {
  meta_observer_ = std::move(fn);
}

}  // namespace pjsb::meta
