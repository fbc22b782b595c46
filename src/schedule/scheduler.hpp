#pragma once
// CLR-integrated list scheduler and the system-level QoS estimation of
// Table 3:
//   Sapp — average makespan (Eq. 1), from average task execution times
//   Fapp — functional reliability (Eq. 2), criticality-weighted
//   Wapp — peak power (Eq. 3)
//   Japp — energy (Eq. 3)

#include <vector>

#include "reliability/clr_config.hpp"
#include "reliability/implementation.hpp"
#include "reliability/metrics.hpp"
#include "schedule/configuration.hpp"

namespace clr::sched {

/// Per-task placement in the computed schedule.
struct TaskSchedule {
  double start = 0.0;  ///< SSTt — average start time
  double end = 0.0;    ///< SETt — average end time
  rel::TaskMetrics metrics;
};

/// Full schedule + Table 3 system metrics.
struct ScheduleResult {
  std::vector<TaskSchedule> tasks;
  double makespan = 0.0;    ///< Sapp
  double func_rel = 0.0;    ///< Fapp in [0, 1]
  double peak_power = 0.0;  ///< Wapp
  double energy = 0.0;      ///< Japp
  /// Aging-limited system lifetime: the minimum duty-cycle-adjusted MTTF
  /// over all PEs that execute at least one task. Per PE, aging accrues at
  /// rate sum_t (AvgExT_t / Sapp) / MTTF_t over its tasks (idle time does
  /// not age the PE), so MTTF_pe = 1 / rate; the system fails with its first
  /// PE (series model). This is the "MTTF added to R(Xi)" extension the
  /// paper suggests for lifetime optimization.
  double system_mttf = 0.0;

  /// Application error rate = 1 - Fapp (the Fig. 1 x-axis).
  double error_rate() const { return 1.0 - func_rel; }
};

/// Static problem context shared by every evaluation of one application:
/// graph + platform + implementation sets + CLR space + fault model.
struct EvalContext {
  const tg::TaskGraph* graph = nullptr;
  const plat::Platform* platform = nullptr;
  const rel::ImplementationSet* impls = nullptr;
  const rel::ClrSpace* clr_space = nullptr;
  rel::MetricsModel metrics;

  /// Throws std::invalid_argument when any pointer is null.
  void check() const;
};

/// Priority-driven list scheduler over a fixed task-to-PE binding.
///
/// Semantics: a task becomes ready when all predecessors have finished and
/// their data has arrived (cross-PE edges pay CommTe); among ready tasks the
/// highest `priority` (ties: lower task id) is scheduled next at its earliest
/// start on its bound PE. Average execution times (AvgExT) give the average
/// makespan of Eq. (1).
///
/// This is the one-shot convenience API: each call builds a CompiledGraph,
/// which tabulates every (implementation, CLR config) pair of the context.
/// Hot loops that evaluate many configurations against one context should
/// build the CompiledGraph once and reuse a per-thread EvalScratch — that is
/// what dse::MappingProblem does; results are bit-identical.
class ListScheduler {
 public:
  /// Evaluate configuration `cfg`. Throws std::invalid_argument when an
  /// implementation index is incompatible with its PE's type or any index is
  /// out of range, and std::logic_error when the graph is cyclic.
  ScheduleResult run(const EvalContext& ctx, const Configuration& cfg) const;
};

}  // namespace clr::sched
