#pragma once
// Reconfiguration model (paper §3.5). Of the four adaptation modes, only
// (3) changing a task's implementation and (4) changing its PE binding incur
// cost: the task binary must be copied to the new PE's local memory over the
// on-chip interconnect, and — when the new implementation is an accelerator
// in a PRR — the PRR bitstream must be streamed through the ICAP.
// Re-ordering (1) and CLR-configuration changes (2) are free.
//
// dRC(a, b) is the total cost of reconfiguring from configuration a to b.

#include <vector>

#include "reliability/implementation.hpp"
#include "schedule/configuration.hpp"

namespace clr::recfg {

/// Breakdown of one reconfiguration's cost.
struct ReconfigCost {
  double migration = 0.0;  ///< binary copies over the interconnect + overhead
  double bitstream = 0.0;  ///< PRR bitstream loads through the ICAP
  std::size_t migrated_tasks = 0;
  std::size_t prr_loads = 0;

  double total() const { return migration + bitstream; }
};

/// Deterministic dRC evaluation.
class ReconfigModel {
 public:
  ReconfigModel(const plat::Platform& platform, const rel::ImplementationSet& impls)
      : platform_(&platform), impls_(&impls) {}

  /// Cost breakdown of switching from `from` to `to`.
  /// dRC(x, x) is always zero.
  ReconfigCost cost(const sched::Configuration& from, const sched::Configuration& to) const;

  /// Convenience: total dRC.
  double drc(const sched::Configuration& from, const sched::Configuration& to) const {
    return cost(from, to).total();
  }

  /// Average dRC from `from` to every configuration in `targets` — the
  /// secondary objective of the ReD stage (§4.2.1). The reference for
  /// DrcTable, which computes the same value bit for bit.
  double average_drc(const sched::Configuration& from,
                     const std::vector<sched::Configuration>& targets) const;

  const plat::Platform& platform() const { return *platform_; }
  const rel::ImplementationSet& impls() const { return *impls_; }

 private:
  const plat::Platform* platform_;
  const rel::ImplementationSet* impls_;
};

/// ReconfigModel::average_drc against one fixed target set, flattened into a
/// table built once (ReD builds one per run_red from the BaseD
/// configurations). For each task and each source (PE, implementation) it
/// holds a row over the targets: the bitstream term and the exact migration
/// term `factor * binary_bytes / binary_bandwidth + per_migration_overhead`,
/// both 0 where the target keeps the source's assignment. An evaluation is
/// then one row of adds per task with no model calls. It keeps one
/// (migration, bitstream) accumulator pair per target, summed in task order
/// like ReconfigModel::cost, so every value equals average_drc bit for bit.
///
/// Stricter than the model on bad input: targets are validated when the
/// table is built, and a source PE outside the platform throws
/// std::out_of_range on every topology (the model's comm factor on a bus
/// silently treats such a PE as one hop away).
class DrcTable {
 public:
  /// Throws std::invalid_argument when the targets differ in task count and
  /// std::out_of_range when a target binds a PE outside the platform or an
  /// implementation its task does not have.
  DrcTable(const ReconfigModel& model, const std::vector<sched::Configuration>& targets);

  std::size_t num_targets() const { return num_targets_; }

  /// Average dRC from `from` to the targets; 0.0 for an empty target set.
  /// Throws std::invalid_argument on a task-count mismatch. Allocation-free
  /// once the calling thread's accumulators are warm for this target count.
  double average_drc(const sched::Configuration& from) const;

 private:
  std::size_t num_tasks_ = 0;
  std::size_t num_targets_ = 0;
  std::size_t num_pes_ = 0;
  /// Per task: implementation slots, its implementation count + 1 (the last
  /// slot stands for any index past the list, which matches no target).
  std::vector<std::size_t> slots_;
  std::vector<std::size_t> row_base_;  ///< per task: its first row
  /// One row per (task, source PE, source slot): the migration terms to every
  /// target, then the bitstream terms, each 0 where the source already has
  /// the target's PE and implementation.
  std::vector<double> rows_;
};

}  // namespace clr::recfg
