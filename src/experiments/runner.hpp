#pragma once
// Replicated, parallel runtime-experiment harness.
//
// The design-time DSE got batching/parallelism/caching in DESIGN.md §5.6;
// this is the same treatment for the run-time half of the hybrid flow
// (Fig. 6/7, Tables 4-7). A grid of cells — (app × db × policy × pRC) — is
// expanded into independent (cell, replication) jobs and fanned out over a
// util::ThreadPool. Each job derives its own seed from the cell's base seed
// via SplitMix64 and writes into a pre-sized slot, so results are bit-for-bit
// identical at any job count (the §5.6 determinism contract). Per-cell
// replications aggregate into ReplicatedStats: mean, stddev and 95% CI
// (Student-t) for every RuntimeStats field — the interval estimates that
// replicated Monte-Carlo evaluation owes its ReD-vs-BaseD / AuRA-vs-uRA
// percentages.
//
// The pairwise DrcMatrix (O(n²) ReconfigModel::drc calls) only depends on
// (db, platform, implementations), never on the policy/pRC/seed of a cell,
// so the Runner memoizes one matrix per distinct (app, db) pair per run and
// builds it row-parallel on the same pool. Likewise each MDP cell's offline
// plan is solved once per run, not once per replication. A MetricsRegistry
// threads through the harness (cells, jobs, events, reconfigs, drc
// builds/cache hits, MDP solves, build and cell timers), and the whole
// replicated grid exports to JSON via clr_io for machine-readable bench
// reports.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/stop.hpp"
#include "experiments/flow.hpp"
#include "io/json.hpp"
#include "runtime/drc_matrix.hpp"

namespace clr::exp {

/// Per-field replication summaries over one cell's Monte-Carlo runs.
struct ReplicatedStats {
  std::size_t replications = 0;
  util::Summary num_events;
  util::Summary num_reconfigs;
  util::Summary num_infeasible_events;
  util::Summary avg_energy;
  util::Summary total_reconfig_cost;
  util::Summary avg_reconfig_cost;
  util::Summary max_drc;
  // Fault / degraded-mode axes (degenerate zero-width summaries when the
  // cell ran without a fault scenario).
  util::Summary qos_violation_time;
  util::Summary num_transient_faults;
  util::Summary num_recovered_transients;
  util::Summary num_unrecovered_failures;
  util::Summary num_permanent_faults;
  util::Summary num_evacuations;
  util::Summary num_safe_mode_entries;
  util::Summary downtime;
  util::Summary availability;
  util::Summary mttr;
  // Reconfiguration-port axes (stall/hidden split, DESIGN.md §5.14). Without
  // prefetching, reconfig_stall_time == total_reconfig_cost per run.
  util::Summary reconfig_stall_time;
  util::Summary prefetch_hidden_time;
  util::Summary prefetch_hits;
  util::Summary prefetch_misses;
  util::Summary service_availability;

  bool operator==(const ReplicatedStats&) const = default;
};

// Every summary has a row in runtime/stat_table.hpp.
#define CLR_SUMMARY_BYTES(stat, fold, device, block, mean, replicated) \
  CLR_STAT_IF(replicated)(+sizeof(ReplicatedStats::replicated))
static_assert(sizeof(ReplicatedStats) ==
              sizeof(std::size_t) CLR_RUNTIME_STATS(CLR_SUMMARY_BYTES));
#undef CLR_SUMMARY_BYTES

/// Aggregate a finished replication set (in replication order — callers that
/// need bit-for-bit reproducibility must not reorder `runs`).
ReplicatedStats replicate_stats(const std::vector<rt::RuntimeStats>& runs);

/// One grid cell: a policy evaluation over one database, replicated over
/// seeds. Either `app` (the reconfiguration-model source; cost matrices are
/// then cached per (app, db)) or an explicit `drc` table must be set.
struct RunnerCell {
  const AppInstance* app = nullptr;
  const dse::DesignDb* db = nullptr;
  const rt::DrcMatrix* drc = nullptr;  ///< explicit cost table (tests/what-if)
  dse::MetricRanges ranges;            ///< QoS-process box (exp::qos_ranges)
  RuntimeEvalParams params;
  std::uint64_t seed = 0;  ///< base seed; replication r runs util::substream_seed(seed, r)
  std::string label;
};

/// Outcome of one cell: the replicated summaries plus observability data.
struct CellResult {
  std::string label;
  RuntimeEvalParams params;
  std::uint64_t seed = 0;
  ReplicatedStats stats;
  /// Summed wall-clock of this cell's replication jobs, milliseconds
  /// (observability only — not part of the deterministic payload).
  double wall_ms = 0.0;
  /// Per-replication raw runs, kept when RunnerConfig::keep_runs (paired
  /// per-seed comparisons, traces).
  std::vector<rt::RuntimeStats> runs;
};

struct RunnerConfig {
  /// Monte-Carlo replications per cell (>= 1).
  std::size_t replications = 5;
  /// Worker concurrency (0 = all hardware threads, 1 = sequential).
  std::size_t jobs = 0;
  /// Keep every replication's RuntimeStats in CellResult::runs.
  bool keep_runs = false;
};

/// Restartable grid state, snapshotted between job batches. Jobs are indexed
/// cell-major (job = cell × replications + rep — the same flat order run()
/// dispatches), and each job's seed depends only on (cell.seed, rep), so a
/// resumed grid aggregates restored + fresh runs into ReplicatedStats that
/// are bit-for-bit the uninterrupted run's. Event traces are NOT carried
/// (aggregation never reads them); restored jobs re-surface with empty
/// traces.
struct RunnerProgress {
  /// Runner::grid_hash() of the grid this progress belongs to; resuming
  /// against a different grid is refused.
  std::uint64_t grid_hash = 0;
  std::size_t replications = 0;
  /// One flag per job, 1 = completed.
  std::vector<std::uint8_t> done;
  /// One record per job; meaningful only where done[i] != 0.
  std::vector<rt::RuntimeStats> runs;

  std::size_t jobs_done() const {
    std::size_t n = 0;
    for (std::uint8_t d : done) n += (d != 0);
    return n;
  }
};

/// Cooperative-cancellation + checkpoint hooks for Runner::run(). Default
/// state (no stop, no batching, no resume) reproduces the plain run().
struct RunnerControl {
  /// Checked between batches and inside the pool's job-claim loop; a
  /// requested stop finishes the in-flight jobs and returns a partial
  /// outcome (complete = false).
  util::StopToken stop;
  /// Jobs per dispatch wave (0 = all pending jobs in one wave). The
  /// checkpoint cadence: on_batch fires after every wave.
  std::size_t batch_size = 0;
  /// Called after each wave with the accumulated progress (traces already
  /// stripped) — the session layer serializes this into a checkpoint.
  std::function<void(const RunnerProgress&)> on_batch;
  /// Resume from a prior run's progress: completed jobs are never re-run.
  /// Validated against grid_hash()/replications/job count (throws
  /// std::invalid_argument on mismatch).
  const RunnerProgress* resume = nullptr;
};

/// Outcome of a controlled run. `results` always spans every cell; cells
/// with missing replications aggregate only the completed ones (partial
/// report).
struct RunOutcome {
  std::vector<CellResult> results;
  bool complete = true;
  std::size_t jobs_done = 0;
  std::size_t jobs_total = 0;
};

class Runner {
 public:
  explicit Runner(RunnerConfig config = {}) : config_(config) {}

  /// Queue a cell; returns its index into the run() result vector.
  std::size_t add_cell(RunnerCell cell);

  /// Expand cells × replications, fan the jobs out, aggregate. Results are
  /// indexed by add_cell() order and bit-for-bit independent of `jobs`.
  std::vector<CellResult> run();

  /// Controlled run: stop-aware, batched, resumable (DESIGN.md §5.12). With
  /// a default RunnerControl this is exactly run(); with `resume` set,
  /// completed jobs are skipped and the final aggregation is bit-identical
  /// to the uninterrupted run at any `jobs` count.
  RunOutcome run(const RunnerControl& control);

  /// FNV-1a over the grid's result-affecting identity: cell labels, seeds,
  /// policy/p_rc/simulation/fault parameters, db sizes, QoS ranges and the
  /// replication count. Deliberately excludes `jobs` (thread count never
  /// affects results) and wall-clock observability.
  std::uint64_t grid_hash() const;

  const RunnerConfig& config() const { return config_; }
  std::size_t num_cells() const { return cells_.size(); }

  /// Harness counters/timers: runner.cells, runner.jobs, runner.events,
  /// runner.reconfigs, runner.drc_builds, runner.drc_cache_hits,
  /// runner.mdp_solves (only once an MDP cell ran), runner.drc_build
  /// (timer), runner.cell (timer).
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

 private:
  RunnerConfig config_;
  util::MetricsRegistry metrics_;
  std::vector<RunnerCell> cells_;
};

/// Machine-readable report of a replicated grid: experiment name, harness
/// config, per-cell field summaries and wall-clock, and — when a Runner is
/// given — its metrics snapshot. `interrupted` marks a partial report from a
/// stopped run (the key is only emitted when true, keeping existing reports
/// byte-stable).
io::Json grid_report(const std::string& experiment, const RunnerConfig& config,
                     const std::vector<CellResult>& results,
                     const util::MetricsRegistry* metrics = nullptr, bool interrupted = false);

}  // namespace clr::exp
