// Daemon integration: a real Server on a real socket, driven through
// the client library. The headline property is that live-submitting
// data/contention.swf in arrival order yields a decision stream
// byte-identical to the committed offline golden — plus kill/query,
// snapshot/resume, auth, concurrent query sessions that must not
// perturb the schedule, bounded per-epoch publish cost (the verbs stay
// identical to a full-history engine), and bounded transport
// resources.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/swf/reader.hpp"
#include "sched/registry.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "sim/job.hpp"
#include "sim/replay.hpp"
#include "sim/snapshot/snapshot.hpp"
#include "sim/snapshot/whatif.hpp"
#include "sim/spec.hpp"
#include "util/rng.hpp"
#include "validate/decisions.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace pjsb::serve {
namespace {

std::string fixture(const std::string& relative) {
  return std::string(PJSB_SOURCE_DIR) + "/" + relative;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

swf::Trace contention() {
  auto result = swf::read_swf_file(fixture("data/contention.swf"));
  EXPECT_TRUE(result.ok());
  return std::move(result.trace);
}

std::unique_ptr<sim::Engine> make_engine(const std::string& scheduler,
                                         std::int64_t nodes) {
  const auto spec =
      sim::SimulationSpec{}.with_scheduler(scheduler).with_nodes(nodes);
  return std::make_unique<sim::Engine>(
      sim::spec_engine_config(spec, nodes),
      sched::make_scheduler(scheduler));
}

/// Submit one trace record the way serve_client replay does: mirror
/// SimJob::from_record so the daemon admits exactly the job an offline
/// replay would.
Response submit_record(Client& client, const swf::JobRecord& record) {
  const auto job = sim::SimJob::from_record(record);
  return client.submit(job.procs, job.estimate, job.submit, job.runtime,
                       job.id, job.user_id);
}

TEST(ServeServer, LiveReplayMatchesCommittedGolden) {
  const std::string decisions_path =
      testing::TempDir() + "/serve_live.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();

  auto client = Client::connect_tcp(server.port());
  client.handshake();
  const auto trace = contention();
  for (const auto& record : trace.records) {
    const auto response = submit_record(client, record);
    ASSERT_TRUE(response.ok) << response.message;
  }
  const auto drained = client.drain();
  ASSERT_TRUE(drained.ok) << drained.message;
  EXPECT_EQ(drained.field_i64("decisions"), 40);

  EXPECT_EQ(slurp(decisions_path),
            slurp(fixture("data/golden/contention_conservative.decisions")));

  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, WhatIfMatchesOfflinePredictAndDoesNotPerturb) {
  const std::string decisions_path =
      testing::TempDir() + "/serve_whatif.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();

  auto client = Client::connect_tcp(server.port());
  client.handshake();
  const auto trace = contention();
  const std::size_t cut = trace.records.size() / 2;

  // A twin engine fed the same half of the trace, advanced to the same
  // horizon the daemon reached (latest submit - 1), answers
  // predict_start serially; the socket answers must match it exactly.
  auto twin = make_engine("conservative", 32);
  for (std::size_t i = 0; i < cut; ++i) {
    const auto response = submit_record(client, trace.records[i]);
    ASSERT_TRUE(response.ok) << response.message;
    twin->submit_job(sim::SimJob::from_record(trace.records[i]));
  }
  const auto last_at = sim::SimJob::from_record(trace.records[cut - 1]).submit;
  twin->run_until(last_at - 1);

  for (std::int64_t procs = 1; procs <= 32; procs += 7) {
    for (std::int64_t estimate : {60, 600, 6000}) {
      const auto answer = client.whatif(procs, estimate);
      ASSERT_TRUE(answer.ok) << answer.message;
      const auto expected =
          twin->scheduler().predict_start(twin->now(), procs, estimate);
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(answer.field_i64("start"), *expected)
          << "procs=" << procs << " estimate=" << estimate;
      EXPECT_EQ(answer.field_i64("at"), twin->now());
    }
  }
  // Simulate mode places the hypothetical job too.
  const auto simulated = client.whatif(4, 600, /*offset=*/0, true);
  ASSERT_TRUE(simulated.ok) << simulated.message;
  EXPECT_EQ(simulated.field("mode"), "simulate");
  EXPECT_TRUE(simulated.field_i64("start").has_value());

  // The barrage above must not have perturbed the live schedule: the
  // remainder of the trace still completes onto the committed golden.
  for (std::size_t i = cut; i < trace.records.size(); ++i) {
    const auto response = submit_record(client, trace.records[i]);
    ASSERT_TRUE(response.ok) << response.message;
  }
  ASSERT_TRUE(client.drain().ok);
  EXPECT_EQ(slurp(decisions_path),
            slurp(fixture("data/golden/contention_conservative.decisions")));

  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, KillAndQueryLifecycle) {
  Server server(ServerConfig{}, make_engine("fcfs", 8));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();

  // First job fills the machine; the second queues behind it.
  const auto running = client.submit(8, 10000, /*at=*/0, 10000);
  ASSERT_TRUE(running.ok) << running.message;
  const auto queued = client.submit(8, 10000, /*at=*/1, 10000);
  ASSERT_TRUE(queued.ok) << queued.message;
  // A later submission moves the clock past both: job 1 runs, job 2
  // waits.
  ASSERT_TRUE(client.submit(1, 60, /*at=*/100, 60).ok);

  const auto running_id = *running.field_i64("id");
  const auto queued_id = *queued.field_i64("id");
  auto state = client.query(running_id);
  ASSERT_TRUE(state.ok);
  EXPECT_EQ(state.field("state"), "running");
  state = client.query(queued_id);
  ASSERT_TRUE(state.ok);
  EXPECT_EQ(state.field("state"), "queued");
  // The queued job's predicted start comes from the read tier.
  EXPECT_TRUE(state.field_i64("predicted_start").has_value());

  // Kill the queued job: it terminates without ever starting.
  const auto killed = client.kill(queued_id);
  ASSERT_TRUE(killed.ok) << killed.message;
  state = client.query(queued_id);
  ASSERT_TRUE(state.ok);
  EXPECT_EQ(state.field("state"), "finished");

  // Unknown ids are a stable error, not a crash.
  const auto missing = client.kill(424242);
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.code, kErrNotFound);
  const auto missing_query = client.query(424242);
  EXPECT_FALSE(missing_query.ok);
  EXPECT_EQ(missing_query.code, kErrNotFound);

  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, SnapshotAndResumeVerbs) {
  const std::string snap_path = testing::TempDir() + "/serve_state.snap";
  std::int64_t frozen_time = 0;
  {
    Server server(ServerConfig{}, make_engine("conservative", 32));
    server.start();
    auto client = Client::connect_tcp(server.port());
    client.handshake();
    const auto trace = contention();
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(submit_record(client, trace.records[i]).ok);
    }
    const auto status = client.status();
    ASSERT_TRUE(status.ok);
    frozen_time = *status.field_i64("time");
    const auto snap = client.snapshot(snap_path);
    ASSERT_TRUE(snap.ok) << snap.message;
    EXPECT_GT(*snap.field_i64("bytes"), 0);
    ASSERT_TRUE(client.shutdown().ok);
    server.wait();
  }
  // The snapshot restores offline...
  const auto restored = sim::Engine::restore(
      sim::snapshot::read_file(snap_path));
  EXPECT_EQ(restored->now(), frozen_time);

  // ...and seeds a fresh daemon through the RESUME verb.
  Server server(ServerConfig{}, make_engine("conservative", 32));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  const auto resumed = client.resume(snap_path);
  ASSERT_TRUE(resumed.ok) << resumed.message;
  EXPECT_EQ(resumed.field_i64("time"), frozen_time);
  const auto status = client.status();
  ASSERT_TRUE(status.ok);
  EXPECT_EQ(status.field_i64("time"), frozen_time);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, AuthTokenGatesSessions) {
  ServerConfig config;
  config.auth_token = "sesame";
  Server server(config, make_engine("fcfs", 8));
  server.start();

  auto denied = Client::connect_tcp(server.port());
  EXPECT_THROW(denied.handshake("wrong"), std::runtime_error);

  auto client = Client::connect_tcp(server.port());
  client.handshake("sesame");
  EXPECT_TRUE(client.status().ok);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, UnixSocketEndpoint) {
  ServerConfig config;
  config.socket_path = testing::TempDir() + "/serve_test.sock";
  Server server(config, make_engine("easy", 16));
  server.start();
  auto client = Client::connect_unix(config.socket_path);
  client.handshake();
  const auto status = client.status();
  ASSERT_TRUE(status.ok);
  EXPECT_EQ(status.field_i64("queued"), 0);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, ConcurrentQuerySessionsDoNotPerturbTheSchedule) {
  const std::string decisions_path =
      testing::TempDir() + "/serve_concurrent.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();

  std::atomic<bool> done{false};
  std::atomic<std::int64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      auto reader = Client::connect_tcp(server.port());
      reader.handshake();
      std::int64_t q = 0;
      while (!done.load()) {
        const auto answer =
            reader.whatif(1 + (t * 5 + q) % 16, 60 * (1 + q % 16));
        ASSERT_TRUE(answer.ok) << answer.message;
        ASSERT_TRUE(reader.status().ok);
        ++q;
        ++answered;
      }
    });
  }

  auto writer = Client::connect_tcp(server.port());
  writer.handshake();
  const auto trace = contention();
  for (const auto& record : trace.records) {
    ASSERT_TRUE(submit_record(writer, record).ok);
  }
  ASSERT_TRUE(writer.drain().ok);
  done.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_GT(answered.load(), 0);

  EXPECT_EQ(slurp(decisions_path),
            slurp(fixture("data/golden/contention_conservative.decisions")));
  ASSERT_TRUE(writer.shutdown().ok);
  server.wait();
}

/// Status fields the differential checks compare: everything but the
/// epoch stamp (the offline twin has no epochs).
std::vector<std::pair<std::string, std::string>> without_epoch(
    const Response& response) {
  auto fields = response.fields;
  if (!fields.empty() && fields.back().first == "epoch") fields.pop_back();
  return fields;
}

void expect_same_reply(const Response& live, const Response& offline,
                       const std::string& what) {
  EXPECT_EQ(live.ok, offline.ok) << what;
  EXPECT_EQ(live.code, offline.code) << what;
  EXPECT_EQ(live.message, offline.message) << what;
  EXPECT_EQ(without_epoch(live), offline.fields) << what;
}

/// A full-history engine driven through the calls the daemon's engine
/// thread makes for each verb (Server::apply_* plus advance()), with
/// replies built the way the daemon builds them. The daemon bounds its
/// history; this twin keeps everything and answers from find_job /
/// cancel_job, so every reply must agree.
struct FullHistoryTwin {
  explicit FullHistoryTwin(std::unique_ptr<sim::Engine> e)
      : engine(std::move(e)) {
    engine->add_observer(recorder);
  }

  void advance() {
    const auto next = engine->next_event_time();
    if (horizon > engine->now() || (next && *next <= horizon)) {
      engine->run_until(horizon);
    }
  }

  Response submit(const sim::SimJob& record) {
    Response r;
    if (engine->find_job(record.id)) {
      r = error_response(kErrBadRequest, "job id " +
                                             std::to_string(record.id) +
                                             " already exists");
    } else {
      sim::SimJob job;
      job.id = record.id;
      job.submit = std::max(record.submit, engine->now());
      job.estimate = record.estimate;
      job.runtime = record.runtime;
      job.walltime = record.estimate;
      job.procs = record.procs;
      job.user_id = record.user_id;
      const auto id = engine->submit_job(job);
      horizon = std::max(horizon, job.submit - 1);
      r = ok_response().with("id", id).with("at", job.submit);
    }
    advance();
    return r;
  }

  Response kill(std::int64_t id) {
    std::string why;
    Response r = engine->cancel_job(id, &why)
                     ? ok_response().with("id", id).with("state", "cancelled")
                     : error_response(why == "unknown job id" ? kErrNotFound
                                                              : kErrBadRequest,
                                      why);
    advance();
    return r;
  }

  Response query(std::int64_t id) {
    sim::WhatIfService service(engine->snapshot());
    const auto status = service.query_job(id);
    if (!status) return error_response(kErrNotFound, "unknown job id");
    Response r = ok_response()
                     .with("id", status->id)
                     .with("state", sim::to_string(status->state))
                     .with("submit", status->submit)
                     .with("procs", status->procs);
    if (status->start) r.with("start", *status->start);
    if (status->end) r.with("end", *status->end);
    if (status->predicted_start) {
      r.with("predicted_start", *status->predicted_start);
    }
    return r;
  }

  /// RESUME: swap in the restored state; the recorder keeps going.
  void resume(const std::string& bytes) {
    engine = sim::Engine::restore(bytes);
    engine->add_observer(recorder);
    horizon = engine->now();
    advance();
  }

  bool finished(std::int64_t id) const {
    const sim::SimJob* job = engine->find_job(id);
    return job && job->state == sim::JobState::kFinished;
  }

  std::unique_ptr<sim::Engine> engine;
  validate::DecisionRecorder recorder;
  std::int64_t horizon = 0;
};

Response submit_job(Client& client, const sim::SimJob& job) {
  return client.submit(job.procs, job.estimate, job.submit, job.runtime,
                       job.id, job.user_id);
}

TEST(ServeServer, VerbsMatchAFullHistoryEngine) {
  const std::string decisions_path =
      testing::TempDir() + "/serve_differential.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  FullHistoryTwin twin(make_engine("conservative", 32));

  // Live phase: submit in arrival order, cancelling as we go — some
  // kills hit queued or running jobs, some finished or pending ones.
  const auto trace = contention();
  std::vector<sim::SimJob> jobs;
  for (const auto& record : trace.records) {
    jobs.push_back(sim::SimJob::from_record(record));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    expect_same_reply(submit_job(client, job), twin.submit(job),
                      "SUBMIT " + std::to_string(job.id));
    if (i % 4 == 2) {
      const auto victim = jobs[i - 1].id;
      expect_same_reply(client.kill(victim), twin.kill(victim),
                        "KILL " + std::to_string(victim));
    }
    if (i % 9 == 5) {
      expect_same_reply(client.kill(job.id), twin.kill(job.id),
                        "KILL pending " + std::to_string(job.id));
    }
    if (i % 6 == 0 && i > 0) {
      const auto id = jobs[i / 2].id;
      expect_same_reply(client.query(id), twin.query(id),
                        "QUERY " + std::to_string(id));
    }
  }

  // Before DRAIN (after it every mutation is refused): every id, plus
  // one never submitted, through QUERY, duplicate SUBMIT and KILL.
  std::vector<std::int64_t> ids = {999999};
  for (const auto& job : jobs) ids.push_back(job.id);
  for (const auto id : ids) {
    const auto what = [id](const char* verb) {
      return std::string(verb) + ' ' + std::to_string(id);
    };
    expect_same_reply(client.query(id), twin.query(id), what("QUERY"));
    sim::SimJob duplicate = jobs.front();
    duplicate.id = id;
    duplicate.submit = twin.engine->now();
    if (twin.engine->find_job(id)) {
      expect_same_reply(submit_job(client, duplicate), twin.submit(duplicate),
                        what("duplicate SUBMIT"));
    }
    expect_same_reply(client.kill(id), twin.kill(id), what("KILL"));
  }

  const auto drained = client.drain();
  ASSERT_TRUE(drained.ok) << drained.message;
  twin.engine->run();
  for (const auto id : ids) {
    expect_same_reply(client.query(id), twin.query(id),
                      "drained QUERY " + std::to_string(id));
  }
  EXPECT_EQ(drained.field_i64("decisions"),
            std::int64_t(twin.recorder.decisions().size()));
  EXPECT_EQ(slurp(decisions_path),
            validate::decisions_to_csv(twin.recorder.decisions()));
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, PublishCostStaysFlatAsHistoryGrows) {
  // Load 0.7: the conservative backlog stays stationary over the
  // session, so the snapshot size tracks history alone. (At 0.85 the
  // backlog itself grows, 23 -> 48 live jobs between these two points,
  // and the live state the snapshot must carry grows with it.) A
  // full-history engine publishes ~4x more after submit 4000 than
  // after submit 1000 at either load.
  constexpr std::int64_t kNodes = 128;
  util::Rng rng(20240612);
  workload::ModelConfig model;
  model.jobs = 4000;
  model.machine_nodes = kNodes;
  model.mean_interarrival = 300;
  const auto trace = workload::scale_to_load(
      workload::generate(workload::ModelKind::kLublin99, model, rng), 0.7,
      kNodes);
  ASSERT_EQ(trace.records.size(), 4000u);

  Server server(ServerConfig{}, make_engine("conservative", kNodes));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  std::int64_t after_1000 = 0;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    ASSERT_TRUE(submit_record(client, trace.records[i]).ok);
    if (i + 1 == 1000) after_1000 = *client.status().field_i64("snapshot_bytes");
  }
  const auto status = client.status();
  const auto after_4000 = *status.field_i64("snapshot_bytes");
  EXPECT_GT(*status.field_i64("completed"), 3000);
  // One epoch publishes live state only: four times the history must
  // not mean a proportionally larger snapshot.
  EXPECT_LE(double(after_4000), 1.5 * double(after_1000))
      << "after 1000 submits: " << after_1000
      << " bytes, after 4000: " << after_4000;
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

/// QUERY every id, and KILL / duplicate-SUBMIT every id the twin
/// would refuse without mutating anything (finished, or for KILL also
/// unknown), on the daemon and on its full-history twin. Returns how
/// many finished ids were checked.
int expect_same_refusals(Client& client, FullHistoryTwin& twin,
                         const std::vector<std::int64_t>& ids,
                         const sim::SimJob& template_job,
                         const std::string& when) {
  int finished = 0;
  for (const auto id : ids) {
    const auto what = [&](const char* verb) {
      return when + ' ' + verb + ' ' + std::to_string(id);
    };
    expect_same_reply(client.query(id), twin.query(id), what("QUERY"));
    if (!twin.finished(id) && twin.engine->find_job(id)) continue;
    expect_same_reply(client.kill(id), twin.kill(id), what("KILL"));
    if (!twin.finished(id)) continue;
    ++finished;
    sim::SimJob duplicate = template_job;
    duplicate.id = id;
    duplicate.submit = twin.engine->now();
    expect_same_reply(submit_job(client, duplicate), twin.submit(duplicate),
                      what("duplicate SUBMIT"));
  }
  return finished;
}

TEST(ServeServer, SnapshotOfABoundedDaemonResumesItsSchedule) {
  // A daemon snapshot carries live jobs only; a RESUMEd daemon still
  // finishes the trace onto the committed golden (decisions keep
  // appending to the same file across the swap), and still refuses
  // what a full-history engine refuses for jobs finished before it.
  const std::string snap_path = testing::TempDir() + "/serve_bounded.snap";
  const std::string decisions_path =
      testing::TempDir() + "/serve_bounded.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  FullHistoryTwin twin(make_engine("conservative", 32));
  std::vector<sim::SimJob> jobs;
  for (const auto& record : contention().records) {
    jobs.push_back(sim::SimJob::from_record(record));
  }
  const std::size_t cut = jobs.size() / 2;
  std::vector<std::int64_t> before;
  for (std::size_t i = 0; i < cut; ++i) {
    expect_same_reply(submit_job(client, jobs[i]), twin.submit(jobs[i]),
                      "SUBMIT " + std::to_string(jobs[i].id));
    before.push_back(jobs[i].id);
  }
  ASSERT_TRUE(client.snapshot(snap_path).ok);
  ASSERT_TRUE(client.resume(snap_path).ok);
  twin.resume(twin.engine->snapshot());
  EXPECT_GT(expect_same_refusals(client, twin, before, jobs.front(),
                                 "after RESUME"),
            0);
  for (std::size_t i = cut; i < jobs.size(); ++i) {
    ASSERT_TRUE(submit_job(client, jobs[i]).ok);
  }
  ASSERT_TRUE(client.drain().ok);
  EXPECT_EQ(slurp(decisions_path),
            slurp(fixture("data/golden/contention_conservative.decisions")));
  EXPECT_TRUE(sim::Engine::restore(sim::snapshot::read_file(snap_path))
                  ->completed()
                  .empty());
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, ResumeForgetsJobsOfTheAbandonedTimeline) {
  // Jobs submitted after the snapshot and finished before the RESUME
  // never happened in the restored run: their ids are unknown again
  // and may be submitted anew, exactly as for a full-history engine.
  const std::string snap_path = testing::TempDir() + "/serve_timeline.snap";
  const std::string decisions_path =
      testing::TempDir() + "/serve_timeline.decisions";
  ServerConfig config;
  config.decisions_path = decisions_path;
  Server server(config, make_engine("conservative", 32));
  server.start();
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  FullHistoryTwin twin(make_engine("conservative", 32));
  std::vector<sim::SimJob> jobs;
  for (const auto& record : contention().records) {
    jobs.push_back(sim::SimJob::from_record(record));
  }
  const std::size_t cut = jobs.size() / 3;
  const std::size_t abandoned_end = 2 * jobs.size() / 3;
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < abandoned_end; ++i) {
    if (i == cut) {
      ASSERT_TRUE(client.snapshot(snap_path).ok);
    }
    expect_same_reply(submit_job(client, jobs[i]), twin.submit(jobs[i]),
                      "SUBMIT " + std::to_string(jobs[i].id));
    ids.push_back(jobs[i].id);
  }
  int abandoned_finished = 0;
  for (std::size_t i = cut; i < abandoned_end; ++i) {
    abandoned_finished += twin.finished(jobs[i].id) ? 1 : 0;
  }
  ASSERT_GT(abandoned_finished, 0) << "the abandoned timeline must finish "
                                      "jobs for this test to bite";

  // The twin's own snapshot at the same cut: replay its first `cut`
  // submits on a fresh twin.
  FullHistoryTwin cut_twin(make_engine("conservative", 32));
  for (std::size_t i = 0; i < cut; ++i) cut_twin.submit(jobs[i]);
  ASSERT_TRUE(client.resume(snap_path).ok);
  twin.resume(cut_twin.engine->snapshot());
  EXPECT_GT(expect_same_refusals(client, twin, ids, jobs.front(),
                                 "after RESUME"),
            0);

  // The abandoned jobs go in again and the run completes as one.
  for (std::size_t i = cut; i < jobs.size(); ++i) {
    expect_same_reply(submit_job(client, jobs[i]), twin.submit(jobs[i]),
                      "SUBMIT again " + std::to_string(jobs[i].id));
  }
  ASSERT_TRUE(client.drain().ok);
  twin.engine->run();
  EXPECT_EQ(slurp(decisions_path),
            validate::decisions_to_csv(twin.recorder.decisions()));
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, OverlongLineIsRefusedAndTheConnectionClosed) {
  Server server(ServerConfig{}, make_engine("fcfs", 8));
  server.start();
  std::string error;
  const int fd = net::connect_tcp(server.port(), &error);
  ASSERT_GE(fd, 0) << error;
  net::LineReader reader(fd);
  ASSERT_TRUE(net::send_all(fd, "HELLO\n"));
  ASSERT_TRUE(reader.read_line().value_or("").rfind("OK", 0) == 0);

  // Exactly at the cap: an ordinary request, the session lives.
  std::string padded = "STATUS";
  padded.resize(net::kMaxLineBytes, ' ');
  ASSERT_TRUE(net::send_all(fd, padded + "\n"));
  EXPECT_EQ(reader.read_line().value_or("").rfind("OK time=", 0), 0u);

  // One byte over: ERR, then the server hangs up.
  ASSERT_TRUE(
      net::send_all(fd, std::string(net::kMaxLineBytes + 1, 'X') + "\n"));
  const auto refused = reader.read_line();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->rfind("ERR bad-request request line longer than", 0),
            0u)
      << *refused;
  EXPECT_FALSE(reader.read_line().has_value());
  net::close_fd(fd);

  // Other sessions are unaffected.
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  EXPECT_TRUE(client.status().ok);
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, PipelinedLinesAreAnsweredInOrder) {
  Server server(ServerConfig{}, make_engine("fcfs", 8));
  server.start();
  std::string error;
  const int fd = net::connect_tcp(server.port(), &error);
  ASSERT_GE(fd, 0) << error;
  constexpr int kLines = 2000;
  std::string burst = "HELLO pipeline\n";
  for (int i = 0; i < kLines; ++i) {
    burst += i % 2 == 0 ? "STATUS\n" : "QUERY " + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(net::send_all(fd, burst));
  net::LineReader reader(fd);
  ASSERT_EQ(reader.read_line().value_or("").rfind("OK proto=", 0), 0u);
  for (int i = 0; i < kLines; ++i) {
    const auto line = reader.read_line();
    ASSERT_TRUE(line.has_value()) << "reply " << i << " missing";
    const char* expected = i % 2 == 0 ? "OK time=" : "ERR not-found";
    ASSERT_EQ(line->rfind(expected, 0), 0u) << "reply " << i << ": " << *line;
  }
  net::close_fd(fd);
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
}

TEST(ServeServer, FinishedConnectionThreadsAreReaped) {
  Server server(ServerConfig{}, make_engine("fcfs", 8));
  server.start();
  constexpr int kConnections = 300;
  std::size_t most_held = 0;
  for (int i = 0; i < kConnections; ++i) {
    auto client = Client::connect_tcp(server.port());
    client.handshake();
    ASSERT_TRUE(client.status().ok);
    most_held = std::max(most_held, server.connection_threads());
  }
  // Without reaping every one of the kConnections threads stays held
  // until shutdown; with it, only the few whose teardown was still in
  // flight at the next accept.
  EXPECT_LT(most_held, std::size_t(kConnections / 4));
  auto client = Client::connect_tcp(server.port());
  client.handshake();
  ASSERT_TRUE(client.shutdown().ok);
  server.wait();
  EXPECT_EQ(server.connection_threads(), 0u);
}

}  // namespace
}  // namespace pjsb::serve
