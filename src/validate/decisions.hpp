// Decision traces: the scheduler's observable behaviour as data.
//
// A replay's sequence of (time, job, procs, virtual) start decisions
// pins down the policy's behaviour exactly — two runs that agree on
// their decision traces agree on every derived metric. The metamorphic
// harness compares decision traces across workload transformations and
// the golden harness snapshots them to files, so both build on this
// one recorder + serializer.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/swf/trace.hpp"
#include "sim/observer.hpp"

namespace pjsb::validate {

/// Collects every decision of one replay, in emission order.
class DecisionRecorder final : public sim::SimObserver {
 public:
  void on_decision(const sim::Decision& decision) override {
    decisions_.push_back(decision);
  }
  const std::vector<sim::Decision>& decisions() const { return decisions_; }

 private:
  std::vector<sim::Decision> decisions_;
};

/// Streams every decision to a CSV file as it is made — the exact
/// bytes decisions_to_csv() gives for the whole stream — so a
/// long-running producer (the serve daemon) holds no decision history.
/// The file is truncated and the header written at the first decision
/// or flush(), not on construction (which does no I/O); rows are
/// buffered until flush() or destruction.
class DecisionCsvWriter final : public sim::SimObserver {
 public:
  /// Empty `path` (or one that cannot be opened): count only.
  explicit DecisionCsvWriter(std::string path) : path_(std::move(path)) {}

  void on_decision(const sim::Decision& decision) override;
  /// Push buffered rows (at least the header) to the file. False when
  /// the file could not be opened or written.
  bool flush();
  /// Decisions seen so far (written or not).
  std::size_t count() const { return count_; }

 private:
  void open();

  std::string path_;
  std::ofstream out_;
  bool opened_ = false;
  std::size_t count_ = 0;
};

/// Replay `trace` under `scheduler_spec` (open loop, no outages) and
/// return the decision trace. `nodes` empty defers to the trace's
/// MaxNodes header, exactly like sim::replay.
std::vector<sim::Decision> replay_decisions(
    const swf::Trace& trace, const std::string& scheduler_spec,
    std::optional<std::int64_t> nodes = std::nullopt);

/// Canonical text form, one line per decision:
///   time,job,procs,virtual
/// preceded by a header line. Line-diffable and byte-stable, so golden
/// files review well and diffs point at the first divergent decision.
std::string decisions_to_csv(const std::vector<sim::Decision>& decisions);

/// Compare two decision CSVs; empty result means identical. Otherwise a
/// short human-readable diff naming the first divergent line.
std::string diff_decision_csv(const std::string& expected,
                              const std::string& actual);

}  // namespace pjsb::validate
