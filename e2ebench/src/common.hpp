// Shared pieces of the end-to-end benchmark: run options, the result
// document, span clocks for the traced runs, and small statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/swf/trace.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The benchmark's seed when none is given (the BENCH_2 workload seed).
inline constexpr std::uint64_t kDefaultSeed = 20240612;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for the generated trace, sink files, the daemon
  /// socket and decision dumps (relative paths resolve against it).
  std::string workdir;
  /// Expected decision-CSV sha256 ("" = none pinned for this seed).
  std::string pin;
  /// Result document path ("" = do not write one).
  std::string out;
  /// Provenance stamps forwarded by the launcher.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// One workload run: the operations it attempted, the ones that failed
/// (a wrong output counts as a failure), the reported metrics, and
/// free-form details for the result document.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  /// Metrics the contract reports (end-to-end or per-layer).
  std::map<std::string, Metric> metrics;
  /// Everything else worth keeping in the result document.
  std::map<std::string, Metric> extra;
  std::map<std::string, std::string> info;
  /// Raw per-pass / per-session samples behind the medians.
  std::map<std::string, std::vector<double>> samples;
  /// Layer table of a traced batch run: name -> self seconds.
  std::vector<std::pair<std::string, double>> layers;
  double layers_total_s = 0.0;

  /// Count one operation; a false `ok` is a failure described by `what`.
  void check(bool ok, const std::string& what);
  /// Count `n` operations of which `bad` failed.
  void tally(std::int64_t n, std::int64_t bad, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    extra[name] = {value, unit};
  }
};

/// Layers timed by a traced batch run. Self time of a layer is its span
/// time minus the time of the spans nested inside it.
enum class Layer {
  kIngest,
  kEngine,
  kSchedPass,
  kSchedSubmit,
  kSchedJobEnd,
  kAlloc,
  kSinkTrace,
  kSinkSeries,
  kMetrics,
  kCount,
};

const char* layer_name(Layer layer);

/// Single-threaded span stack. enter()/leave() pairs nest; every leave
/// charges the elapsed time to its layer and to its parent's children.
class LayerClock {
 public:
  void enter(Layer layer) {
    stack_.push_back({layer, Clock::now(), 0.0});
  }
  void leave() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double elapsed = seconds_since(frame.start);
    self_[static_cast<int>(frame.layer)] += elapsed - frame.children;
    if (!stack_.empty()) stack_.back().children += elapsed;
  }
  double self_s(Layer layer) const { return self_[static_cast<int>(layer)]; }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double children;
  };
  std::vector<Frame> stack_;
  double self_[static_cast<int>(Layer::kCount)] = {};
};

class Span {
 public:
  Span(LayerClock& clock, Layer layer) : clock_(clock) { clock_.enter(layer); }
  ~Span() { clock_.leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock& clock_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> values, double q);
double peak_rss_mb();

std::string sha256_hex(const std::string& bytes);
/// sha256 of a file read in chunks; stores its size in *size if given.
std::string sha256_file(const std::string& path, std::int64_t* size = nullptr);
std::string read_file(const std::string& path);

/// A Lublin'99 trace of `jobs` jobs for a `nodes`-node machine, scaled
/// to offered `load` (the bench::make_workload recipe behind BENCH_2).
pjsb::swf::Trace lublin_trace(std::uint64_t seed, std::size_t jobs,
                              std::int64_t nodes, double load);

int run_batch(const Options& options, Result& result);
int run_daemon(const Options& options, Result& result);

}  // namespace e2e
