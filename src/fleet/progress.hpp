#pragma once
// Fleet aggregation blocks and restartable progress (DESIGN.md §5.13).
//
// Dependency-free PODs shared between the fleet pipeline (src/fleet) and the
// checkpoint codec (src/io/checkpoint.cpp): keeping them header-only here
// lets clr_io encode/decode fleet checkpoints without linking clr_fleet.
//
// The block is the unit that makes fleet aggregation bit-identical at any
// shard/thread count AND the resume grain of a checkpoint:
//
//   - devices are partitioned into fixed blocks of `block_size` consecutive
//     device ids; the partition depends only on (devices, block_size), never
//     on shards or jobs;
//   - each block is summed sequentially in device order by exactly one
//     worker, so its floating-point sums have one fixed association order;
//   - every aggregate (per-shard and global) is a fold of whole BlockSums in
//     block-index order, so the final association order is also fixed.
//
// Integer counters are associative anyway; the double sums are bit-stable
// because their grouping is pinned by the block structure; max_drc is an
// order-free max. A checkpoint persists completed BlockSums verbatim, so a
// resumed run folds the exact bits an uninterrupted run would have.

#include <cstdint>
#include <vector>

#include "runtime/stat_table.hpp"

namespace clr::fleet {

/// Per-device outcome: the mergeable slice of rt::RuntimeStats (traces are
/// never kept at fleet scale). A worker folds one per simulated device into
/// its block's BlockSum.
struct DeviceResult {
  std::uint64_t device = 0;  ///< fleet-wide device id (determines the block)
  std::uint64_t events = 0;
  std::uint64_t reconfigs = 0;
  std::uint64_t infeasible_events = 0;
  std::uint64_t transient_faults = 0;
  std::uint64_t recovered_transients = 0;
  std::uint64_t unrecovered_failures = 0;
  std::uint64_t permanent_faults = 0;
  std::uint64_t evacuations = 0;
  std::uint64_t safe_mode_entries = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_misses = 0;
  double avg_energy = 0.0;
  double total_reconfig_cost = 0.0;
  double qos_violation_time = 0.0;
  double downtime = 0.0;
  double availability = 1.0;
  double mttr = 0.0;
  double max_drc = 0.0;
  double reconfig_stall_time = 0.0;
  double prefetch_hidden_time = 0.0;
  double service_availability = 1.0;

  bool operator==(const DeviceResult&) const = default;
};

/// Aggregates over one fixed block of consecutive devices. Also the shape of
/// every derived summary (a shard or fleet total is a block-ordered fold of
/// these). 12 counters + 9 ordered double sums + 1 max.
struct BlockSum {
  std::uint64_t devices = 0;  ///< devices folded in (= block size when done)
  std::uint64_t events = 0;
  std::uint64_t reconfigs = 0;
  std::uint64_t infeasible_events = 0;
  std::uint64_t transient_faults = 0;
  std::uint64_t recovered_transients = 0;
  std::uint64_t unrecovered_failures = 0;
  std::uint64_t permanent_faults = 0;
  std::uint64_t evacuations = 0;
  std::uint64_t safe_mode_entries = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_misses = 0;
  double energy_sum = 0.0;          ///< Σ avg_energy
  double reconfig_cost_sum = 0.0;   ///< Σ total_reconfig_cost
  double violation_time_sum = 0.0;  ///< Σ qos_violation_time
  double downtime_sum = 0.0;        ///< Σ downtime
  double availability_sum = 0.0;    ///< Σ availability
  double mttr_sum = 0.0;            ///< Σ mttr
  double stall_time_sum = 0.0;      ///< Σ reconfig_stall_time
  double hidden_time_sum = 0.0;     ///< Σ prefetch_hidden_time
  double service_availability_sum = 0.0;  ///< Σ service_availability
  double max_drc = 0.0;             ///< max over devices

  bool operator==(const BlockSum&) const = default;

  /// Fold one device in (must be called in ascending device order within a
  /// block — the worker that owns the block simulates it in that order).
  void add(const DeviceResult& r) {
    devices += 1;
#define CLR_ADD(stat, fold, device, block, ...) \
  CLR_STAT_IF(block)(rt::fold_stat<rt::Fold::fold>(block, r.device);)
    CLR_RUNTIME_STATS(CLR_ADD)
#undef CLR_ADD
  }

  /// Fold a whole later block in (must be called in ascending block-index
  /// order for the double sums to have their one canonical grouping).
  void merge(const BlockSum& b) {
    devices += b.devices;
#define CLR_MERGE(stat, fold, device, block, ...) \
  CLR_STAT_IF(block)(rt::fold_stat<rt::Fold::fold>(block, b.block);)
    CLR_RUNTIME_STATS(CLR_MERGE)
#undef CLR_MERGE
  }
};

// Every stat member of DeviceResult and BlockSum has a row in
// runtime/stat_table.hpp.
#define CLR_DEVICE_BYTES(stat, fold, device, ...) \
  CLR_STAT_IF(device)(+rt::stat_bytes<rt::Fold::fold, decltype(DeviceResult::device)>())
#define CLR_BLOCK_BYTES(stat, fold, device, block, ...) \
  CLR_STAT_IF(block)(+rt::stat_bytes<rt::Fold::fold, decltype(BlockSum::block)>())
static_assert(sizeof(DeviceResult) == sizeof(std::uint64_t) CLR_RUNTIME_STATS(CLR_DEVICE_BYTES));
static_assert(sizeof(BlockSum) == sizeof(std::uint64_t) CLR_RUNTIME_STATS(CLR_BLOCK_BYTES));
#undef CLR_DEVICE_BYTES
#undef CLR_BLOCK_BYTES

/// Calls visit(name, member) for every BlockSum stat in FleetState
/// wire order: the counts, then the sums, then the max, each group in table
/// order. `member` points to the BlockSum member, `name` is its name.
template <typename Visit>
void for_each_block_stat(Visit&& visit) {
  for (const rt::Fold group : rt::kFoldOrder) {
#define CLR_VISIT(stat, fold, device, block, ...) \
  CLR_STAT_IF(block)(if (group == rt::Fold::fold) visit(#block, &BlockSum::block);)
    CLR_RUNTIME_STATS(CLR_VISIT)
#undef CLR_VISIT
  }
}

/// Restartable fleet state at block granularity: which blocks are fully
/// accumulated, and their sums. Blocks in flight when a run stops are simply
/// recomputed on resume — per-device seeding makes the redo bit-identical.
struct FleetProgress {
  /// Hash of every result-affecting fleet parameter (fleet::fleet_param_hash);
  /// resume refuses a mismatch. Deliberately excludes shards and jobs.
  std::uint64_t param_hash = 0;
  std::uint64_t devices = 0;
  std::uint64_t block_size = 0;
  /// One flag per block, 1 = fully accumulated. Size = ceil(devices / block_size).
  std::vector<std::uint8_t> done;
  /// One sum per block (zero-initialized where done[i] == 0).
  std::vector<BlockSum> blocks;

  std::uint64_t blocks_done() const {
    std::uint64_t n = 0;
    for (std::uint8_t d : done) n += d != 0 ? 1 : 0;
    return n;
  }
};

}  // namespace clr::fleet
