#pragma once
// Monte-Carlo fault-injection simulator: executes a CLR-integrated mapping
// event-by-event with *sampled* SEUs instead of the closed-form expectations
// of the analytical model (reliability/metrics.hpp). Each run replays the
// list-scheduling policy with actual (retry-extended) execution times, dices
// per-attempt upsets through the same masking / detection / correction /
// re-execution chain, and reports what really happened.
//
// Purpose: validation (the property tests assert that empirical per-task
// error rates, makespans and energies converge to the Table 2/3 analytical
// values) and what-if studies at fault rates where the analytical
// first-order model starts to drift.

#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "schedule/scheduler.hpp"

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

/// Event-driven stochastic executor for one application context.
class FaultInjector {
 public:
  explicit FaultInjector(const sched::EvalContext& ctx);

  /// Simulate a single application execution.
  RunOutcome run_once(const sched::Configuration& cfg, util::Rng& rng) const;

  /// Simulate `runs` executions and aggregate.
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

  const sched::EvalContext* ctx_;
};

}  // namespace clr::sim
