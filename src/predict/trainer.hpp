// Online predictor training as a composable replay observer.
//
// Queue-wait predictors (section 3.1) learn from completed-job wait
// observations. This adapter feeds a replay's completion stream into
// any WaitTimePredictor, so training rides the same sim::SimObserver
// channel as CSV dumps and online metrics — attach it via
// ReplayHooks::observe (or Engine::add_observer).
#pragma once

#include "predict/predictor.hpp"
#include "sim/observer.hpp"

namespace pjsb::predict {

class PredictorTrainer final : public sim::SimObserver {
 public:
  /// Non-owning: the predictor must outlive the run.
  explicit PredictorTrainer(WaitTimePredictor& predictor)
      : predictor_(predictor) {}

  void on_job_complete(const sim::CompletedJob& job) override {
    JobFeatures features;
    features.submit = job.submit;
    features.procs = job.procs;
    features.estimate = job.estimate;
    features.user_id = job.user_id;
    features.executable_id = job.executable_id;
    features.queue_id = job.queue_id;
    predictor_.observe(features, job.wait());
  }

 private:
  WaitTimePredictor& predictor_;
};

}  // namespace pjsb::predict
