// Parallel campaign execution.
//
// A work-queue thread pool drains the cell list produced by
// exp/campaign.hpp. Every cell is self-contained — its workload,
// outage stream and scheduler are built from the cell seed alone, and
// its result lands in a preallocated slot indexed by the cell's linear
// index — so the output is byte-identical at any thread count (the
// determinism regression test in tests/exp/ holds the runner to that).
#pragma once

#include <functional>
#include <vector>

#include "core/swf/trace.hpp"
#include "exp/campaign.hpp"
#include "metrics/aggregate.hpp"
#include "obs/telemetry.hpp"

namespace pjsb::exp {

struct RunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int threads = 0;
  /// Progress observer, invoked serially (under the runner's mutex)
  /// after each *simulated* cell. `total` counts simulated cells: the
  /// runner skips replications that provably cannot differ (trace-file
  /// workload, no outage stream) and copies replication 0 instead.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// The outcome of one cell.
struct CellResult {
  CellSpec cell;
  metrics::MetricsReport metrics;
  /// Jobs in the replayed workload (before any were lost to the run).
  std::size_t workload_jobs = 0;
  /// Wall-clock cost of the cell. Informational only — never written
  /// to CSV/JSON reports, which must be deterministic.
  double wall_seconds = 0.0;
  /// Per-cell counters/histograms rollup. All zeros unless the
  /// campaign set `telemetry =` (exp::telemetry_csv emits it).
  obs::TelemetrySummary telemetry;
};

/// A completed campaign: the spec plus one result per cell, in linear
/// cell-index order.
struct CampaignRun {
  CampaignSpec spec;
  std::vector<CellResult> cells;
};

/// Execute every cell of `spec`. Trace-file workloads are loaded once
/// up front (std::runtime_error if unreadable); synthetic workloads are
/// generated per cell from the cell seed. Exceptions thrown by cells
/// are rethrown after all workers finish.
CampaignRun run_campaign(const CampaignSpec& spec,
                         const RunnerOptions& options = {});

/// Execute a single cell (the unit the pool workers run). Exposed for
/// tests and for embedding in custom drivers. `preloaded` holds one
/// trace per spec.workloads index: trace-file workloads loaded (and
/// rescaled to the workload's target load) once for all their cells;
/// entries for model and streamed workloads are ignored.
CellResult run_cell(const CampaignSpec& spec, const CellSpec& cell,
                    const std::vector<swf::Trace>& preloaded);

}  // namespace pjsb::exp
