#include "reconfig/reconfig.hpp"

#include <algorithm>
#include <stdexcept>

namespace clr::recfg {

namespace {

/// Copying `impl`'s binary from PE `from` to PE `to`. On a mesh NoC the
/// binary travels hop-by-hop from the old to the new PE; implementation
/// swaps on the same PE load from backing store at unit distance.
double migration_term(const plat::Platform& platform, plat::PeId from, plat::PeId to,
                      const rel::Implementation& impl) {
  const auto& ic = platform.interconnect();
  const double factor = from != to ? platform.comm_factor(from, to) : 1.0;
  return factor * static_cast<double>(impl.binary_bytes) / ic.binary_bandwidth +
         ic.per_migration_overhead;
}

}  // namespace

ReconfigCost ReconfigModel::cost(const sched::Configuration& from,
                                 const sched::Configuration& to) const {
  if (from.size() != to.size()) {
    throw std::invalid_argument("ReconfigModel::cost: configuration size mismatch");
  }
  const auto& ic = platform_->interconnect();
  ReconfigCost c;

  for (tg::TaskId t = 0; t < from.size(); ++t) {
    const auto& a = from[t];
    const auto& b = to[t];
    if (a.pe == b.pe && a.impl_index == b.impl_index) continue;  // re-ordering / CLR: free

    c.migration += migration_term(*platform_, a.pe, b.pe, impls_->for_task(t).at(b.impl_index));
    ++c.migrated_tasks;

    // Loading onto a PRR-hosted accelerator requires its bitstream unless the
    // same accelerator implementation already occupied that PRR slot.
    const plat::Pe& target_pe = platform_->pe(b.pe);
    if (target_pe.prr != plat::Pe::kNoPrr) {
      const plat::Prr& prr = platform_->prr(target_pe.prr);
      c.bitstream += static_cast<double>(prr.bitstream_bytes) / ic.icap_bandwidth;
      ++c.prr_loads;
    }
  }
  return c;
}

double ReconfigModel::average_drc(const sched::Configuration& from,
                                  const std::vector<sched::Configuration>& targets) const {
  if (targets.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& target : targets) sum += drc(from, target);
  return sum / static_cast<double>(targets.size());
}

DrcTable::DrcTable(const ReconfigModel& model, const std::vector<sched::Configuration>& targets)
    : num_targets_(targets.size()), num_pes_(model.platform().num_pes()) {
  if (targets.empty()) return;
  num_tasks_ = targets.front().size();
  for (const auto& target : targets) {
    if (target.size() != num_tasks_) {
      throw std::invalid_argument("DrcTable: targets differ in task count");
    }
  }
  const plat::Platform& platform = model.platform();
  const auto& ic = platform.interconnect();
  row_base_.resize(num_tasks_);
  slots_.resize(num_tasks_);
  std::size_t rows = 0;
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    row_base_[t] = rows;
    slots_[t] = model.impls().for_task(t).size() + 1;
    rows += num_pes_ * slots_[t];
  }
  rows_.resize(rows * 2 * num_targets_);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const auto& task_impls = model.impls().for_task(t);
    for (std::size_t j = 0; j < num_targets_; ++j) {
      const sched::TaskAssignment& b = targets[j][t];
      const rel::Implementation& impl = task_impls.at(b.impl_index);
      const plat::Pe& target_pe = platform.pe(b.pe);
      double bitstream = 0.0;
      if (target_pe.prr != plat::Pe::kNoPrr) {
        bitstream = static_cast<double>(platform.prr(target_pe.prr).bitstream_bytes) /
                    ic.icap_bandwidth;
      }
      for (plat::PeId src = 0; src < num_pes_; ++src) {
        const double migration = migration_term(platform, src, b.pe, impl);
        for (std::size_t slot = 0; slot < slots_[t]; ++slot) {
          // The source (src, slot) keeps the target's assignment: free.
          const bool kept = src == b.pe && slot == b.impl_index;
          double* row = &rows_[(row_base_[t] + src * slots_[t] + slot) * 2 * num_targets_];
          row[j] = kept ? 0.0 : migration;
          row[num_targets_ + j] = kept ? 0.0 : bitstream;
        }
      }
    }
  }
}

double DrcTable::average_drc(const sched::Configuration& from) const {
  if (num_targets_ == 0) return 0.0;
  if (from.size() != num_tasks_) {
    throw std::invalid_argument("DrcTable::average_drc: configuration size mismatch");
  }
  // Target j's migration and bitstream sums, each fed in task order as in
  // ReconfigModel::cost. A target the source already matches adds +0.0
  // instead of being skipped, which keeps the sweep a plain streaming add;
  // that is exact, since x + 0.0 == x for every x but -0.0 and a sum
  // started at +0.0 is never -0.0.
  thread_local std::vector<double> acc;
  acc.assign(2 * num_targets_, 0.0);
  double* acc_migration = acc.data();
  double* acc_bitstream = acc.data() + num_targets_;
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const sched::TaskAssignment& a = from[t];
    if (a.pe >= num_pes_) throw std::out_of_range("DrcTable::average_drc: unknown source PE");
    // An implementation index past the task's list matches no target.
    const std::size_t slot = std::min<std::size_t>(a.impl_index, slots_[t] - 1);
    const double* row = &rows_[(row_base_[t] + a.pe * slots_[t] + slot) * 2 * num_targets_];
    for (std::size_t j = 0; j < num_targets_; ++j) acc_migration[j] += row[j];
    for (std::size_t j = 0; j < num_targets_; ++j) acc_bitstream[j] += row[num_targets_ + j];
  }
  double sum = 0.0;
  for (std::size_t j = 0; j < num_targets_; ++j) sum += acc_migration[j] + acc_bitstream[j];
  return sum / static_cast<double>(num_targets_);
}

}  // namespace clr::recfg
