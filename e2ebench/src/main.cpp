// e2ebench: one end-to-end benchmark for both paths of pjsb.
//
//   e2ebench --workload <batch_conservative|batch_easy_traced|daemon_mixed>
//            [--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]
//            [--pin SHA256] [--out RESULT.json]
//            [--commit ID] [--source-digest SHA256]
//
// Prints a human-readable table, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 adds a traced run and reports the
// per-layer metrics instead. Exits 1 when any correctness check fails.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Result::Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += quote(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + quote(metric.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_json(const Options& options) {
  return "{\"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + quote(cpu_model()) +
         ", \"compiler\": " + quote(compiler()) +
         ", \"build_type\": " + quote(E2E_BUILD_TYPE) +
         ", \"commit\": " + quote(options.commit) +
         ", \"source_sha256\": " + quote(options.source_digest) + "}";
}

std::string document(const Options& options, const Result& result) {
  std::ostringstream os;
  os << "{\n  \"benchmark\": \"e2ebench\",\n"
     << "  \"workload\": " << quote(options.workload) << ",\n"
     << "  \"seed\": " << options.seed << ",\n"
     << "  \"seconds\": " << number(options.seconds) << ",\n"
     << "  \"trace\": " << (options.trace ? 1 : 0) << ",\n"
     << "  \"host\": " << host_json(options) << ",\n"
     << "  \"correct\": " << (result.failed == 0 ? "true" : "false") << ",\n"
     << "  \"attempted\": " << result.attempted << ",\n"
     << "  \"failed\": " << result.failed << ",\n"
     << "  \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    os << (i ? ", " : "") << quote(result.failures[i]);
  }
  os << "],\n  \"metrics\": " << metrics_json(result.metrics) << ",\n"
     << "  \"details\": " << metrics_json(result.extra) << ",\n"
     << "  \"info\": {";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    os << (first ? "" : ", ") << quote(key) << ": " << quote(value);
    first = false;
  }
  os << "},\n  \"samples\": {";
  first = true;
  for (const auto& [key, values] : result.samples) {
    os << (first ? "" : ", ") << quote(key) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? ", " : "") << number(values[i]);
    }
    os << "]";
    first = false;
  }
  os << "},\n  \"layers\": [";
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const auto& [name, self] = result.layers[i];
    os << (i ? ",\n    " : "\n    ") << "{\"layer\": " << quote(name)
       << ", \"self_s\": " << number(self) << ", \"share\": "
       << number(result.layers_total_s > 0 ? self / result.layers_total_s
                                           : 0.0)
       << "}";
  }
  os << (result.layers.empty() ? "" : "\n  ") << "]";
  if (!result.layers.empty()) {
    os << ",\n  \"layers_total_s\": " << number(result.layers_total_s);
  }
  os << "\n}\n";
  return os.str();
}

void print_table(const Options& options, const Result& result) {
  std::cout << "e2ebench " << options.workload << " seed=" << options.seed
            << " trace=" << (options.trace ? 1 : 0) << "\n"
            << "host " << host_json(options) << "\n";
  const auto rows = [](const std::map<std::string, Result::Metric>& m) {
    for (const auto& [name, metric] : m) {
      std::cout << "  " << name << " = " << number(metric.value) << " "
                << metric.unit << "\n";
    }
  };
  rows(result.metrics);
  rows(result.extra);
  if (!result.layers.empty()) {
    std::cout << "  layer self times (traced wall "
              << number(result.layers_total_s) << " s):\n";
    for (const auto& [name, self] : result.layers) {
      std::cout << "    " << name << " " << number(self) << " s  "
                << number(100.0 * self / result.layers_total_s) << " %\n";
    }
  }
  for (const auto& failure : result.failures) {
    std::cout << "  FAILED: " << failure << "\n";
  }
}

/// Every per-layer metric, batch and daemon alike. A traced run reports
/// all of them; a layer the workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"ingest.s", "s"},
    {"ingest.mb_per_s", "MB/s"},
    {"ingest.records", "count"},
    {"sched.pass_calls", "count"},
    {"sched.pass_self_s", "s"},
    {"sched.submit_s", "s"},
    {"sched.job_end_s", "s"},
    {"sched.pass_useful_ratio", "ratio"},
    {"alloc.calls", "count"},
    {"alloc.nodes", "count"},
    {"alloc.self_s", "s"},
    {"sink.trace.s", "s"},
    {"sink.timeseries.s", "s"},
    {"sink.bytes", "bytes"},
    {"engine.events", "count"},
    {"engine.self_s", "s"},
    {"metrics.report_s", "s"},
    {"layers.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"ingest.share", "ratio"},
    {"engine.share", "ratio"},
    {"sched.share", "ratio"},
    {"alloc.share", "ratio"},
    {"sink.share", "ratio"},
    {"metrics.share", "ratio"},
    {"client.submit_p50_ms", "ms"},
    {"client.submit_p99_ms", "ms"},
    {"client.submit_per_s", "1/s"},
    {"client.submit_decay", "ratio"},
    {"client.whatif_p50_ms", "ms"},
    {"client.whatif_p99_ms", "ms"},
    {"client.whatif_per_s", "1/s"},
    {"serve.protocol_us", "us"},
    {"engine.apply_us", "us"},
    {"publish.snapshot_us", "us"},
    {"publish.snapshot_bytes", "bytes"},
    {"publish.restore_us", "us"},
    {"whatif.cold_us", "us"},
    {"whatif.warm_us", "us"},
    {"serve.residual_us", "us"},
    {"serve.epochs_per_submit", "ratio"},
};

int usage() {
  std::cerr << "usage: e2ebench --workload <batch_conservative|"
               "batch_easy_traced|daemon_mixed> [--seed N] [--seconds S] "
               "[--trace 0|1] [--workdir DIR] [--pin SHA256] [--out PATH] "
               "[--commit ID] [--source-digest SHA256]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (argc % 2 == 0) return usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
      } else if (key == "--workdir") {
        options.workdir = value;
      } else if (key == "--pin") {
        options.pin = value;
      } else if (key == "--out") {
        options.out = std::filesystem::absolute(value).string();
      } else if (key == "--commit") {
        options.commit = value;
      } else if (key == "--source-digest") {
        options.source_digest = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  const bool batch = options.workload == "batch_conservative" ||
                     options.workload == "batch_easy_traced";
  if (!batch && options.workload != "daemon_mixed") return usage();

  Result result;
  try {
    if (!options.workdir.empty()) {
      std::filesystem::create_directories(options.workdir);
      if (::chdir(options.workdir.c_str()) != 0) {
        std::cerr << "e2ebench: cannot enter " << options.workdir << "\n";
        return 2;
      }
    }
    const int rc = batch ? run_batch(options, result)
                         : run_daemon(options, result);
    if (rc != 0) return rc;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }

  // The result line carries error_rate as attempted/failed; it is not a
  // reported metric because it reads 0 on a healthy run.
  result.note("error_rate",
              static_cast<double>(result.failed) /
                  static_cast<double>(
                      std::max<std::int64_t>(1, result.attempted)),
              "ratio");
  if (options.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      if (!result.metrics.count(name)) result.set(name, 0.0, unit);
    }
  }
  print_table(options, result);
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << document(options, result);
  }
  std::cout << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(result.metrics) << "}"
            << std::endl;
  return result.failed == 0 ? 0 : 1;
}
