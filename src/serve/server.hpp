// The scheduling daemon: one authoritative engine thread, many
// sessions, a read-mostly what-if query tier.
//
// Architecture:
//
//   accept thread ──> connection threads ──> Session FSM
//                           │ mutations                │ queries
//                           v                          v
//        bounded MPSC command queue          epoch-stamped query tier
//                           │                (shared_ptr<WhatIfService>
//                           v                 + status snapshot)
//                  engine thread: apply commands, advance sim time,
//                  republish the tier after every mutation epoch
//
// Mutating verbs (SUBMIT, KILL, SNAPSHOT, RESUME, DRAIN, SHUTDOWN)
// become commands on a bounded MPSC queue consumed by the single
// engine thread — live submissions turn into ordinary engine events,
// so a session that submits a trace's jobs in arrival order yields a
// decision stream byte-identical to an offline sim::replay of that
// trace. Read verbs (QUERY, WHATIF, STATUS) never touch the engine:
// they run against the latest published epoch — an immutable snapshot
// handed to a thread-safe WhatIfService — so a what-if barrage cannot
// perturb the live schedule, and scales across connections.
//
// Bounded history: the server switches its engine to bounded history
// (Engine::bound_history) on construction and on RESUME, so the engine
// keeps only running, queued and pending jobs. One epoch's publish —
// snapshot plus the WhatIfService's validating restore — therefore
// costs O(live state), not O(jobs ever submitted). What the verbs
// still need of finished jobs lives in a server-side index (id,
// submit, procs, start, end; filled by the engine observer): QUERY
// falls back to it when the tier's snapshot does not know an id, and
// ignores entries newer than its tier, so every answer stays
// consistent with one epoch. KILL of a finished id and a duplicate-id
// SUBMIT consult it too. The index is the one O(history) structure
// left, at a few dozen bytes per job. A SNAPSHOT of the daemon carries
// no completed-job archive: a report from a resumed daemon snapshot
// covers only jobs that finish after it. The RESUME verb keeps the
// index entries of jobs that terminated before the snapshot was cut
// (counted in termination order, so it is exact for a snapshot of
// this daemon's own run) and drops the rest. A new process seeded from
// a daemon snapshot (swf_tool serve --resume) starts with an empty
// index: it answers QUERY of a job finished before the snapshot with
// not-found, accepts a SUBMIT that reuses its id, and answers its KILL
// with not-found instead of "job already terminated". Decisions stream
// to decisions_path as they are made instead of accumulating in
// memory.
//
// Time: with time_scale == 0 (logical time, the default) the clock
// only advances under submitted work — events up to (latest submit
// time - 1) are processed, so every event at the newest timestamp is
// enqueued before that timestamp runs (the batching rule behind the
// byte-identical guarantee); DRAIN lifts the horizon and runs the
// engine dry. With time_scale > 0, one wall-clock second advances the
// simulation time_scale seconds, whether or not submissions arrive.
//
// Resources: request lines are capped at net::kMaxLineBytes (longer
// ones get ERR and the connection is closed), and connection threads
// that have finished are joined as new connections are accepted.
//
// Lifecycle: SIGTERM/SIGINT (with ServerConfig::handle_signals) or
// SHUTDOWN drain-then-stop; decisions_path is flushed and
// snapshot_on_shutdown written on the way out, and a snapshot written
// there can seed a new daemon (swf_tool serve --resume) or the RESUME
// verb.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/session.hpp"
#include "sim/engine.hpp"
#include "sim/snapshot/whatif.hpp"
#include "validate/decisions.hpp"

namespace pjsb::serve {

struct ServerConfig {
  /// Unix-domain socket path. Empty: listen on loopback TCP instead.
  std::string socket_path;
  /// Loopback TCP port (0 = ephemeral; see Server::port()). Used only
  /// when socket_path is empty.
  int tcp_port = 0;
  /// Non-empty: sessions must AUTH with this token after HELLO.
  std::string auth_token;
  /// Simulated seconds per wall-clock second; 0 = logical time (the
  /// clock advances only under submitted work).
  double time_scale = 0.0;
  /// Stream the decision CSV here as decisions are made (truncated at
  /// the first decision; flushed on DRAIN and on shutdown).
  std::string decisions_path;
  /// Write a resumable engine snapshot here on shutdown.
  std::string snapshot_on_shutdown;
  /// Drain (run the backlog dry) before an externally signalled stop.
  bool drain_on_signal = true;
  /// Install SIGTERM/SIGINT handlers that drain + shut down (the
  /// swf_tool serve path; tests drive SHUTDOWN explicitly instead).
  bool handle_signals = false;
  /// Mutation commands buffered before submitters block (backpressure).
  std::size_t command_queue_capacity = 1024;
};

class Server final : public ServerCore, private sim::SimObserver {
 public:
  /// Takes the engine to serve (built from a SimulationSpec, or
  /// restored from a snapshot). The engine must not need a job source.
  Server(ServerConfig config, std::unique_ptr<sim::Engine> engine);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the endpoint and start the engine + accept threads. Throws
  /// std::runtime_error when the endpoint cannot be bound.
  void start();
  /// Block until SHUTDOWN (or a handled signal) stops the daemon, then
  /// tear down sockets and join every thread.
  void wait();
  /// start() + wait().
  void run();
  /// Async stop (as if SHUTDOWN arrived). Safe from any thread.
  void request_shutdown();

  /// Bound TCP port (after start(); 0 for Unix-socket endpoints).
  int port() const { return port_; }
  std::uint64_t epoch() const;
  /// Connection threads not yet joined (live sessions plus finished
  /// ones awaiting the next accept).
  std::size_t connection_threads() const;

  // -- ServerCore (called from session threads) --
  Response submit(const Request& request) override;
  Response kill(std::int64_t job_id) override;
  Response query(std::int64_t job_id) override;
  Response whatif(const Request& request) override;
  Response status() override;
  Response snapshot(const std::string& path) override;
  Response resume(const std::string& path) override;
  Response drain() override;
  Response shutdown() override;
  bool draining() const override { return draining_.load(); }
  const std::string& auth_token() const override {
    return config_.auth_token;
  }

 private:
  struct Command {
    enum class Kind {
      kSubmit,
      kKill,
      kSnapshot,
      kResume,
      kDrain,
      kShutdown,
    };
    Kind kind = Kind::kSubmit;
    Request request;    ///< kSubmit
    std::int64_t job_id = 0;
    std::string path;   ///< kSnapshot / kResume
    std::promise<Response> reply;
  };

  /// One published epoch: an immutable service over the engine state
  /// plus the status fields sessions report without engine access.
  struct Tier {
    std::uint64_t epoch = 0;
    std::shared_ptr<sim::WhatIfService> service;
    std::int64_t time = 0;
    std::size_t queued = 0;
    std::size_t running = 0;
    std::int64_t completed = 0;
    std::int64_t killed = 0;
    std::int64_t dropped = 0;
    std::size_t decisions = 0;
  };

  /// What QUERY reports of a terminated job after its engine slot is
  /// released.
  struct FinishedJob {
    std::int64_t submit = 0;
    std::int64_t procs = 0;
    std::int64_t start = -1;
    std::int64_t end = -1;
    std::uint64_t epoch = 0;  ///< first epoch whose tier may report it
    /// Termination order (jobs_completed + jobs_dropped after it);
    /// RESUME keeps the entries at or below the restored state's count.
    std::int64_t ordinal = 0;
  };

  /// Enqueue a mutation and wait for the engine thread's reply.
  Response submit_command(Command command);

  void engine_loop();
  Response apply(Command& command);
  Response apply_submit(const Request& request);
  Response apply_kill(std::int64_t job_id);
  Response apply_snapshot(const std::string& path);
  Response apply_resume(const std::string& path);
  Response apply_drain();
  Response apply_shutdown();
  /// Process due events (logical horizon or wall-mapped time). True
  /// when any event ran.
  bool advance();
  /// Re-snapshot the engine into a fresh query tier.
  void publish();
  std::shared_ptr<const Tier> tier() const;

  /// Bound `engine`'s history, seed the finished index from the jobs
  /// it released, and attach the server's observers.
  void adopt_engine(std::unique_ptr<sim::Engine> engine);
  /// Index a terminated job; visible from the next published epoch.
  void remember_finished(std::int64_t id, FinishedJob entry);
  bool is_finished(std::int64_t job_id) const;
  // sim::SimObserver (engine thread): feed the finished index.
  void on_job_complete(const sim::CompletedJob& job) override;
  void on_job_drop(std::int64_t time, const sim::SimJob& job,
                   sim::DropReason reason) override;

  void accept_loop(int listen_fd);
  void serve_connection(int fd, std::int64_t session_id);

  ServerConfig config_;
  std::unique_ptr<sim::Engine> engine_;  ///< engine thread only
  validate::DecisionCsvWriter decisions_;  ///< attached to engine_
  /// Terminated jobs by id. Written by the engine thread, read by
  /// QUERY from session threads.
  mutable std::mutex finished_mutex_;
  std::unordered_map<std::int64_t, FinishedJob> finished_;
  /// Terminations so far, as the engine counts them. Engine thread only.
  std::int64_t terminated_ = 0;
  /// Logical-time horizon: events up to this time may run (latest
  /// submit - 1, or +inf once drained). Engine thread only.
  std::int64_t horizon_ = 0;
  std::chrono::steady_clock::time_point wall_origin_;
  std::int64_t sim_origin_ = 0;

  // Command queue (bounded MPSC).
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;       ///< consumer wake
  std::condition_variable queue_space_cv_; ///< producer wake
  std::deque<Command> queue_;

  // Published query tier.
  mutable std::mutex tier_mutex_;
  std::shared_ptr<const Tier> tier_;
  std::uint64_t epoch_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> active_sessions_{0};
  std::int64_t next_session_id_ = 1;

  // Lifecycle.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool engine_done_ = false;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread engine_thread_;
  std::thread accept_thread_;
  mutable std::mutex conn_mutex_;
  std::unordered_set<int> conn_fds_;
  /// Connection threads by session id; ids in finished_conns_ have
  /// left serve_connection and are joined on the next accept.
  std::map<std::int64_t, std::thread> conn_threads_;
  std::vector<std::int64_t> finished_conns_;
};

}  // namespace pjsb::serve
