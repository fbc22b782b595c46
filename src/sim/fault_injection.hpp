#pragma once
// Monte-Carlo validator: executes a CLR-integrated mapping with *sampled*
// SEUs instead of the closed-form expectations of the analytical model
// (reliability/metrics.hpp). Each run dices per-attempt upsets through the
// same masking / detection / correction / re-execution chain, replays the
// list-scheduling policy with the actual (retry-extended) execution times,
// and reports what really happened.
//
// Purpose: validation (the property tests assert that empirical per-task
// error rates, makespans and energies converge to the Table 2/3 analytical
// values) and what-if studies at fault rates where the analytical
// first-order model starts to drift.

#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "schedule/compiled_graph.hpp"

namespace clr::sim {

/// Outcome of one simulated application execution.
struct RunOutcome {
  double makespan = 0.0;
  double energy = 0.0;
  /// Per-task: did the task finish with a wrong / unrecovered result?
  std::vector<bool> task_failed;
  /// Criticality-weighted success of this run (the empirical Fapp sample).
  double weighted_success = 0.0;
  /// Total re-executions (retries + checkpoint rollbacks) across tasks.
  std::size_t reexecutions = 0;
};

/// Aggregated statistics over many runs.
struct InjectionAggregate {
  util::RunningStats makespan;
  util::RunningStats energy;
  util::RunningStats weighted_success;  ///< mean() is the empirical Fapp
  std::vector<double> task_error_rate;  ///< empirical ErrProb per task
  double mean_reexecutions = 0.0;
  std::size_t runs = 0;
};

/// Stochastic executor for one application context, scheduled on the
/// compiled kernel. The list scheduler's dispatch order depends only on the
/// graph and the priorities, never on durations. So one kernel evaluation
/// per configuration validates every assignment (typed errors, before any
/// draw) and records that order; each run then samples every task's attempt
/// chain in the order and re-times the order with the sampled durations.
/// The CompiledGraph snapshots the context's metric tables at construction:
/// rebuild the validator after mutating the context.
class MonteCarloValidator {
 public:
  explicit MonteCarloValidator(const sched::EvalContext& ctx);

  /// The compiled context the runs are scheduled on; its evaluate() gives
  /// the analytical Table 3 values the empirical ones are checked against.
  const sched::CompiledGraph& graph() const { return graph_; }

  /// Simulate a single application execution. Throws std::invalid_argument
  /// like CompiledGraph::evaluate on an invalid configuration, before any
  /// draw from `rng`.
  RunOutcome run_once(const sched::Configuration& cfg, util::Rng& rng) const;

  /// Simulate `runs` executions and aggregate. Throws like run_once, and
  /// on runs == 0.
  InjectionAggregate run_many(const sched::Configuration& cfg, std::size_t runs,
                              util::Rng& rng) const;

 private:
  /// Sampled execution of one task attempt chain on its PE; returns the
  /// total busy time, consumed energy and whether the final result is wrong.
  struct AttemptResult {
    double busy_time = 0.0;
    double energy = 0.0;
    bool failed = false;
    std::size_t reexecutions = 0;
  };
  AttemptResult execute_task(tg::TaskId t, const sched::TaskAssignment& a, util::Rng& rng) const;

  /// One run over the dispatch order a prior evaluate(cfg, scratch) left in
  /// scratch.order; `duration` is per-task working memory.
  RunOutcome sample_run(const sched::Configuration& cfg, sched::EvalScratch& scratch,
                        std::vector<double>& duration, util::Rng& rng) const;

  sched::CompiledGraph graph_;
};

}  // namespace clr::sim
