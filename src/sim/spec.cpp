#include "sim/spec.hpp"

#include <limits>
#include <set>
#include <stdexcept>

#include "sched/registry.hpp"
#include "util/keyval.hpp"
#include "util/string_util.hpp"

namespace pjsb::sim {

namespace {

constexpr const char* kValidKeys =
    "scheduler=<registry spec string>, nodes=<int|auto>, closed_loop=<bool>, "
    "announce=<bool>, lookahead=<int>, max_jobs=<int>, "
    "retain_completed=<bool>, trace=<path>, "
    "timeseries=<path>, sample_every=<int>, profile=<path>, "
    "faults=<seed>, mtbf=<seconds>, repair=<seconds>, "
    "checkpoint=<seconds>, dump=<seconds>, read=<seconds>, "
    "retry_limit=<int>, backoff=<seconds>, overrun=<extend|kill|grace>, "
    "grace=<seconds>";

constexpr std::int64_t kMaxInteger = std::numeric_limits<std::int64_t>::max();

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("simulation spec: " + message);
}

bool parse_bool_or_fail(const std::string& key, std::string_view value) {
  const auto b = util::parse_bool(value);
  if (!b) {
    fail(key + "='" + std::string(value) +
         "' must be 1/0, true/false or yes/no");
  }
  return *b;
}

}  // namespace

SimulationSpec& SimulationSpec::with_scheduler(std::string spec) {
  scheduler = std::move(spec);
  return *this;
}

SimulationSpec& SimulationSpec::with_nodes(std::int64_t n) {
  nodes = n;
  return *this;
}

SimulationSpec& SimulationSpec::auto_nodes() {
  nodes.reset();
  return *this;
}

SimulationSpec& SimulationSpec::closed(bool on) {
  closed_loop = on;
  return *this;
}

SimulationSpec& SimulationSpec::announce_outages(bool on) {
  deliver_announcements = on;
  return *this;
}

SimulationSpec& SimulationSpec::with_lookahead(std::size_t n) {
  lookahead = n;
  return *this;
}

SimulationSpec& SimulationSpec::with_max_jobs(std::uint64_t n) {
  max_jobs = n;
  return *this;
}

SimulationSpec& SimulationSpec::streaming_memory(bool on) {
  retain_completed = !on;
  return *this;
}

SimulationSpec& SimulationSpec::with_trace(std::string path) {
  trace = std::move(path);
  return *this;
}

SimulationSpec& SimulationSpec::with_timeseries(std::string path,
                                                std::int64_t every) {
  timeseries = std::move(path);
  sample_every = every;
  return *this;
}

SimulationSpec& SimulationSpec::with_profile(std::string path) {
  profile = std::move(path);
  return *this;
}

SimulationSpec& SimulationSpec::with_faults(std::uint64_t seed,
                                            std::int64_t mtbf_seconds,
                                            std::int64_t repair_seconds) {
  faults = seed;
  mtbf = mtbf_seconds;
  repair = repair_seconds;
  return *this;
}

SimulationSpec& SimulationSpec::with_checkpointing(std::int64_t interval,
                                                   std::int64_t dump_seconds,
                                                   std::int64_t read_seconds) {
  checkpoint = interval;
  dump = dump_seconds;
  read = read_seconds;
  return *this;
}

SimulationSpec& SimulationSpec::with_retry(int limit,
                                           std::int64_t backoff_seconds) {
  retry_limit = limit;
  backoff = backoff_seconds;
  return *this;
}

SimulationSpec& SimulationSpec::with_overrun(fault::OverrunPolicy policy,
                                             std::int64_t grace_seconds) {
  overrun = policy;
  grace = grace_seconds;
  return *this;
}

fault::FaultModel SimulationSpec::fault_model() const {
  fault::FaultModel model;
  model.seed = faults;
  model.mtbf_seconds = mtbf;
  model.repair_mean_seconds = repair;
  return model;
}

fault::RecoveryConfig SimulationSpec::recovery_config() const {
  fault::RecoveryConfig config;
  config.checkpoint_interval = checkpoint;
  config.dump_time = dump;
  config.read_time = read;
  config.retry_limit = retry_limit;
  config.backoff_seconds = backoff;
  config.overrun = overrun;
  config.grace_seconds = grace;
  return config;
}

void SimulationSpec::validate(bool resolve_scheduler) const {
  if (scheduler.empty()) fail("no scheduler");
  // Resolve the scheduler spec through the registry so a bad name or
  // parameter dies here, with the registry's valid-choices message.
  if (resolve_scheduler) sched::Registry::global().parse(scheduler);
  if (nodes && (*nodes < 1 || *nodes > kMaxSpecNodes)) {
    fail("nodes must be in [1, " + std::to_string(kMaxSpecNodes) +
         "], or auto");
  }
  if (lookahead == 0) fail("lookahead must be >= 1");
  if (sample_every < 0) fail("sample_every must be >= 0");
  if (sample_every > 0 && timeseries.empty()) {
    fail("sample_every without timeseries=<path> samples into nowhere; "
         "name the output file");
  }
  const SimulationSpec defaults;
  if (faults == 0 &&
      (mtbf != defaults.mtbf || repair != defaults.repair)) {
    fail("mtbf=/repair= describe the crash schedule and need "
         "faults=<seed> to enable it");
  }
  if (mtbf < 1) fail("mtbf must be >= 1 second");
  if (repair < 1) fail("repair must be >= 1 second");
  if (checkpoint < 0) fail("checkpoint must be >= 0");
  if (dump < 0 || read < 0) fail("dump/read must be >= 0");
  if (checkpoint == 0 && (dump != 0 || read != 0)) {
    fail("dump=/read= cost checkpoints that never happen; set "
         "checkpoint=<interval> too");
  }
  if (retry_limit < 0) fail("retry_limit must be >= 0 (0 = retry forever)");
  if (backoff < 0) fail("backoff must be >= 0");
  if (grace < 0) fail("grace must be >= 0");
  if (overrun == fault::OverrunPolicy::kGrace && grace == 0) {
    fail("overrun=grace needs grace=<seconds> > 0 (grace=0 is overrun=kill)");
  }
  if (overrun != fault::OverrunPolicy::kGrace && grace != 0) {
    fail("grace= only applies with overrun=grace");
  }
}

std::string SimulationSpec::to_string() const {
  const SimulationSpec defaults;
  std::string s = "scheduler=" + util::quote_spec_value(scheduler);
  if (nodes) s += " nodes=" + std::to_string(*nodes);
  if (closed_loop != defaults.closed_loop) {
    s += std::string(" closed_loop=") + (closed_loop ? "1" : "0");
  }
  if (deliver_announcements != defaults.deliver_announcements) {
    s += std::string(" announce=") + (deliver_announcements ? "1" : "0");
  }
  if (lookahead != defaults.lookahead) {
    s += " lookahead=" + std::to_string(lookahead);
  }
  if (max_jobs != defaults.max_jobs) {
    s += " max_jobs=" + std::to_string(max_jobs);
  }
  if (retain_completed != defaults.retain_completed) {
    s += std::string(" retain_completed=") + (retain_completed ? "1" : "0");
  }
  if (!trace.empty()) s += " trace=" + util::quote_spec_value(trace);
  if (!timeseries.empty()) {
    s += " timeseries=" + util::quote_spec_value(timeseries);
  }
  if (sample_every != defaults.sample_every) {
    s += " sample_every=" + std::to_string(sample_every);
  }
  if (!profile.empty()) s += " profile=" + util::quote_spec_value(profile);
  if (faults != defaults.faults) s += " faults=" + std::to_string(faults);
  if (mtbf != defaults.mtbf) s += " mtbf=" + std::to_string(mtbf);
  if (repair != defaults.repair) s += " repair=" + std::to_string(repair);
  if (checkpoint != defaults.checkpoint) {
    s += " checkpoint=" + std::to_string(checkpoint);
  }
  if (dump != defaults.dump) s += " dump=" + std::to_string(dump);
  if (read != defaults.read) s += " read=" + std::to_string(read);
  if (retry_limit != defaults.retry_limit) {
    s += " retry_limit=" + std::to_string(retry_limit);
  }
  if (backoff != defaults.backoff) s += " backoff=" + std::to_string(backoff);
  if (overrun != defaults.overrun) {
    s += std::string(" overrun=") + fault::overrun_policy_name(overrun);
  }
  if (grace != defaults.grace) s += " grace=" + std::to_string(grace);
  return s;
}

void SimulationSpec::set(const std::string& key, const std::string& value) {
  // Integer keys share one shape: a clean integer within [min, max],
  // checked before it is narrowed to the field's type.
  const auto integer = [&](std::int64_t min,
                           std::int64_t max = kMaxInteger) {
    const auto n = util::parse_i64(value);
    if (!n || *n < min || *n > max) {
      fail(key + "='" + value + "' must be an integer >= " +
           std::to_string(min) +
           (max < kMaxInteger ? " and <= " + std::to_string(max) : ""));
    }
    return *n;
  };
  if (key == "scheduler") {
    scheduler = value;
  } else if (key == "nodes") {
    if (util::to_lower(value) == "auto") {
      nodes.reset();
    } else {
      const auto n = util::parse_i64(value);
      if (!n) fail("nodes must be an integer or 'auto'");
      nodes = *n;
    }
  } else if (key == "closed_loop") {
    closed_loop = parse_bool_or_fail(key, value);
  } else if (key == "announce") {
    deliver_announcements = parse_bool_or_fail(key, value);
  } else if (key == "lookahead") {
    lookahead = std::size_t(integer(1));
  } else if (key == "max_jobs") {
    max_jobs = std::uint64_t(integer(0));
  } else if (key == "retain_completed") {
    retain_completed = parse_bool_or_fail(key, value);
  } else if (key == "trace") {
    trace = value;
  } else if (key == "timeseries") {
    timeseries = value;
  } else if (key == "sample_every") {
    sample_every = integer(0);
  } else if (key == "profile") {
    profile = value;
  } else if (key == "faults") {
    faults = std::uint64_t(integer(0));
  } else if (key == "mtbf") {
    mtbf = integer(1);
  } else if (key == "repair") {
    repair = integer(1);
  } else if (key == "checkpoint") {
    checkpoint = integer(0);
  } else if (key == "dump") {
    dump = integer(0);
  } else if (key == "read") {
    read = integer(0);
  } else if (key == "retry_limit") {
    retry_limit = int(integer(0, std::numeric_limits<int>::max()));
  } else if (key == "backoff") {
    backoff = integer(0);
  } else if (key == "overrun") {
    const auto policy = fault::overrun_policy_from_name(value);
    if (!policy) fail("overrun must be extend, kill or grace");
    overrun = *policy;
  } else if (key == "grace") {
    grace = integer(0);
  } else {
    fail("unknown key '" + key + "'; valid keys: " + kValidKeys);
  }
}

SimulationSpec SimulationSpec::parse(const std::string& text) {
  SimulationSpec spec;
  const auto tokens = util::parse_spec(text, /*allow_head=*/false);
  std::set<std::string> seen;
  for (const auto& option : tokens.options) {
    if (!seen.insert(option.key).second) fail(option.key + " set twice");
    spec.set(option.key, option.value);
  }
  spec.validate();
  return spec;
}

}  // namespace pjsb::sim
