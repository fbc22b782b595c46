#pragma once
// Reference oracle for the Monte-Carlo validator: sim::MonteCarloValidator as
// it stood before it ran on CompiledGraph. It keeps its own ready-set loop,
// re-derives each task's Table 2 bundle through MetricsModel once per task
// per run, and times each sampled attempt chain as it dispatches the task.
// test_validator_differential.cpp holds the validator to bitwise equality
// with it. It reads past a vector on an out-of-range PE id, so feed it valid
// configurations only. Keep it as plain and as unchanged as possible.

#include <cstddef>

#include "sim/fault_injection.hpp"

namespace clr::sim {

class ReferenceInjector {
 public:
  explicit ReferenceInjector(const sched::EvalContext& ctx);

  RunOutcome run_once(const sched::Configuration& cfg, util::Rng& rng) const;

  InjectionAggregate run_many(const sched::Configuration& cfg, std::size_t runs,
                              util::Rng& rng) const;

 private:
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
