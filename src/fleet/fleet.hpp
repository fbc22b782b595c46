#pragma once
// Fleet-scale device simulation service (DESIGN.md §5.13, ROADMAP item 1).
//
// Runs 10⁵–10⁶ *independent* device instances — each a rt::RuntimeSimulator
// + adaptation policy over one shared read-only DesignDb/DrcMatrix (normally
// a mapped `.clrdb` snapshot) — through a sharded dataflow pipeline:
//
//   devices → blocks → shards → workers
//
//   - the device range is partitioned into fixed BLOCKS of consecutive ids
//     (the aggregation + checkpoint grain, fleet::progress.hpp);
//   - blocks are grouped into SHARDS (contiguous, block-aligned ranges);
//   - each of J workers (util::ThreadPool indices; the calling thread is one
//     of them) owns the shards `s ≡ w (mod J)` and simulates their devices in
//     ascending id order (QoS event generation + policy decisions fused in
//     the worker — both are per-device local);
//   - a worker sums each block into a local BlockSum and publishes it under
//     one mutex, the only touch of shared state: devices share nothing but
//     their block sums.
//
// Determinism rule (absolute): every aggregate is bit-identical at any
// shards/jobs combination. Per-device SplitMix64 seeding (util::substream_seed)
// makes each device's simulation a pure function of (fleet seed, device id);
// the block structure pins every floating-point association order (see
// progress.hpp). Proven by tests/fleet/test_fleet_determinism.cpp.
//
// Checkpoint/resume runs on the exp::Session skeleton every session shares
// (DESIGN.md §5.12): run_fleet reports each completed block to
// FleetControl::on_boundary, and the session decides which becomes a
// checkpoint. Completed BlockSums persist as a FleetState section in a
// `.clrdb` checkpoint through the A/B io::CheckpointStore; a resumed run
// recomputes only unfinished blocks and is bit-identical to an
// uninterrupted one (SIGKILL-proven in tests/robustness/test_kill_resume.cpp).

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/stop.hpp"
#include "dse/design_db.hpp"
#include "experiments/flow.hpp"
#include "experiments/session.hpp"
#include "fleet/progress.hpp"
#include "runtime/drc_matrix.hpp"

namespace clr::fleet {

struct FleetConfig {
  /// Device instances to simulate (ids 0..devices-1).
  std::uint64_t devices = 100000;
  /// Contiguous block-aligned device ranges; 0 = one shard per job. Purely a
  /// partitioning knob — never affects results.
  std::size_t shards = 0;
  /// Worker threads (0 = auto via util::resolve_threads). Never affects
  /// results.
  std::size_t jobs = 0;
  /// Fleet master seed; device d simulates under util::substream_seed(seed, d).
  std::uint64_t seed = 1;
  /// Aggregation/checkpoint grain in devices (progress.hpp). Result-affecting
  /// (it pins the floating-point fold grouping), so it is part of the param
  /// hash — unlike shards/jobs.
  std::uint64_t block_size = 1024;
  /// Per-device evaluation knobs: policy kind, pRC, simulation horizon, QoS
  /// process, fault environment. Mirrors exp::evaluate_policy_with exactly —
  /// fleet device d is bit-identical to
  /// `evaluate_policy_with(db, drc, ranges, params, util::substream_seed(seed, d))`.
  exp::RuntimeEvalParams params{};
  /// QoS-requirement box the per-device QoS processes sample from.
  dse::MetricRanges ranges{};
};

/// Mergeable aggregate over a device range: the block-ordered fold plus the
/// derived per-device means the CLI and reports print.
struct FleetSummary {
  BlockSum totals;
  double mean_energy = 0.0;            ///< totals.energy_sum / devices
  double mean_reconfig_cost = 0.0;     ///< totals.reconfig_cost_sum / devices
  double mean_violation_time = 0.0;    ///< totals.violation_time_sum / devices
  double mean_downtime = 0.0;          ///< totals.downtime_sum / devices
  double mean_availability = 1.0;      ///< totals.availability_sum / devices
  double mean_mttr = 0.0;              ///< totals.mttr_sum / devices
  double mean_stall_time = 0.0;        ///< totals.stall_time_sum / devices
  double mean_hidden_time = 0.0;       ///< totals.hidden_time_sum / devices
  double mean_service_availability = 1.0;  ///< totals.service_availability_sum / devices
};

// Every mean has a row in runtime/stat_table.hpp.
#define CLR_MEAN_BYTES(stat, fold, device, block, mean, ...) \
  CLR_STAT_IF(mean)(+rt::stat_bytes<rt::Fold::fold, decltype(FleetSummary::mean)>())
static_assert(sizeof(FleetSummary) == sizeof(BlockSum) CLR_RUNTIME_STATS(CLR_MEAN_BYTES));
#undef CLR_MEAN_BYTES

/// One shard's aggregate (fold of its block range, in block order).
struct ShardSummary {
  std::size_t shard = 0;
  std::uint64_t first_block = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t first_device = 0;
  std::uint64_t num_devices = 0;
  BlockSum totals;
};

/// Run control in the moea::GaRunControl shape. on_boundary runs under the
/// lock that publishes a completed block, on the worker that completed it,
/// so calls never overlap. A worker checks the stop token before each block
/// and finishes a block it started (blocks stay all-or-nothing), so a stop
/// requested from on_boundary ends the run at most jobs − 1 blocks later, at
/// any shard count; at jobs = 1, at exactly that block. An exception from
/// on_boundary or a device ends the run the same way and is rethrown by
/// run_fleet.
struct FleetControl {
  /// Cooperative stop, honored at block boundaries.
  util::StopToken stop;
  /// Called after every completed block with the current progress table.
  /// Which block becomes a checkpoint is the caller's business.
  std::function<void(const FleetProgress&)> on_boundary;
  /// Completed-block table to resume from (validated against the param hash
  /// by the session layer); nullptr = fresh run.
  const FleetProgress* resume = nullptr;
};

struct FleetResult {
  FleetSummary summary;           ///< fold of all completed blocks
  std::vector<ShardSummary> shards;
  FleetProgress progress;         ///< final block table (checkpoint payload)
  bool complete = true;           ///< false when stopped early
  std::uint64_t devices_done = 0; ///< devices in completed blocks
  std::uint64_t blocks_done_this_run = 0;
  double wall_seconds = 0.0;      ///< this run's simulate+publish wall time
  double devices_per_second = 0.0;///< devices simulated this run / wall time
  /// The workers' uRA/AuRA decision-table counters, summed (observability
  /// only: how lookups split depends on which worker ran which device).
  rt::DecisionTable::Counters decision_table;
  std::size_t decision_table_bytes = 0;  ///< summed over the workers' tables
};

/// Seed for device `d` of a fleet seeded with `base`. The fleet draws it as
/// util::substream_seed(base, d) directly; this name stays because the
/// end-to-end benchmark (perfbench/fleet.cpp) calls it, and perfbench changes
/// only together with its recorded digests.
inline std::uint64_t device_seed(std::uint64_t base, std::uint64_t device) {
  return util::substream_seed(base, device);
}

/// FNV-1a over every result-affecting fleet parameter: devices, seed,
/// block_size, policy/simulation/QoS/fault knobs and the ranges box.
/// Deliberately excludes shards and jobs — pure partitioning knobs, so a
/// checkpoint taken at --shards 16 --jobs 8 resumes fine at --shards 1
/// --jobs 1.
std::uint64_t fleet_param_hash(const FleetConfig& config);

/// Number of aggregation blocks: ceil(devices / block_size).
std::uint64_t fleet_num_blocks(const FleetConfig& config);

/// Block range [first, first+count) owned by shard `s` of `shards` over
/// `num_blocks` blocks (balanced contiguous split; early shards get the
/// remainder). Exposed for tests.
std::pair<std::uint64_t, std::uint64_t> shard_block_range(std::uint64_t num_blocks,
                                                          std::size_t shards, std::size_t s);

/// Simulate one device exactly as the fleet pipeline does:
/// exp::evaluate_policy_on against the worker's shared QosProcess +
/// RuntimeSimulator, seeded with util::substream_seed(fleet_seed, device),
/// converted to a DeviceResult. Exposed so tests can pin fleet-vs-reference equality
/// device by device. `mdp_table` supplies the fleet-shared offline plan for
/// PolicyKind::Mdp (nullptr rebuilds it per device — bit-identical, since the
/// offline solve is deterministic, just slower). `decision_table` is the
/// worker's uRA/AuRA memo (nullptr scans every decision — bit-identical).
DeviceResult simulate_device(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                             const rt::QosProcess& qos, const rt::RuntimeSimulator& sim,
                             const exp::RuntimeEvalParams& params,
                             const rel::ClrSpace* clr_space, std::uint64_t device,
                             std::uint64_t fleet_seed,
                             const rt::MdpTable* mdp_table = nullptr,
                             rt::DecisionTable* decision_table = nullptr);

/// Run the fleet. `clr_space` gives fault injection the struck task's CLR
/// coverage (nullptr falls back to FaultParams::fallback_coverage, exactly
/// as exp::evaluate_policy_with). Throws std::invalid_argument on a config
/// the partitioning cannot honor (0 devices is fine and returns empty), and
/// rethrows the first exception of a worker or a FleetControl callback.
FleetResult run_fleet(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                      const rel::ClrSpace* clr_space, const FleetConfig& config,
                      const FleetControl& control = {});

struct FleetSessionOutcome : exp::SessionReport {
  FleetResult result;
};

/// Run a fleet under `session` (exp::Session: checkpoint cadence, A/B store,
/// resume identity, step budget), one boundary per completed block. Throws
/// std::runtime_error when resuming against a checkpoint whose param hash
/// mismatches.
FleetSessionOutcome run_fleet_session(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                                      const rel::ClrSpace* clr_space, const FleetConfig& config,
                                      exp::Session&& session);

/// Fold `progress`'s completed blocks (in block order) into the summary +
/// per-shard aggregates for `shards` shards. Exposed for tests and the CLI's
/// resume-only reporting path.
FleetSummary summarize(const FleetProgress& progress);
std::vector<ShardSummary> summarize_shards(const FleetProgress& progress, std::size_t shards);

}  // namespace clr::fleet
