// JobSource: the pull-based ingestion abstraction.
//
// Everything that can feed jobs into the simulator — an in-memory
// trace, a multi-GB SWF log streamed from disk, an unbounded synthetic
// model stream — implements this one interface: a time-ordered sequence
// of whole-job summary records, delivered one at a time. Consumers
// (sim::Engine, sim::replay, exp campaigns) never see more than their
// lookahead window, so trace size stops being the memory ceiling.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/swf/header.hpp"
#include "core/swf/record.hpp"
#include "core/swf/trace.hpp"

namespace pjsb::swf {

/// A pull-based, time-ordered stream of whole-job summary records
/// (status -1/0/1 — "for workload studies, only the single-line summary
/// of the job should be used"). Implementations must deliver records in
/// ascending submit order, as the SWF standard requires of files; the
/// engine clamps (and counts) any violation rather than crashing.
class JobSource {
 public:
  virtual ~JobSource() = default;

  /// The next summary record, or nullopt when the source is exhausted.
  /// An unbounded source never returns nullopt — consumers bound the
  /// pull themselves (sim::JobSourceOptions::max_jobs).
  virtual std::optional<JobRecord> next() = 0;

  /// Header metadata. Complete from construction for every built-in
  /// source (the streaming reader parses the header block eagerly).
  virtual const TraceHeader& header() const = 0;

  /// Human-readable origin for diagnostics ("trace:logs/kth.swf",
  /// "model:lublin99", ...).
  virtual std::string label() const = 0;
};

/// Adapter exposing an in-memory Trace as a JobSource. Non-owning: the
/// trace must outlive the source (sim::replay drains it synchronously).
/// Skips non-summary (checkpoint/partial) lines, like the engine always
/// has.
class TraceSource final : public JobSource {
 public:
  explicit TraceSource(const Trace& trace) : trace_(&trace) {}

  std::optional<JobRecord> next() override;
  const TraceHeader& header() const override { return trace_->header; }
  std::string label() const override { return "trace:<memory>"; }

 private:
  const Trace* trace_;
  std::size_t index_ = 0;
};

}  // namespace pjsb::swf
