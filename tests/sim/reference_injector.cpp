#include "reference_injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "reliability/techniques.hpp"

namespace clr::sim {

ReferenceInjector::ReferenceInjector(const sched::EvalContext& ctx) : ctx_(&ctx) { ctx.check(); }

ReferenceInjector::AttemptResult ReferenceInjector::execute_task(tg::TaskId t,
                                                                 const sched::TaskAssignment& a,
                                                                 util::Rng& rng) const {
  const auto& impl = ctx_->impls->for_task(t).at(a.impl_index);
  const auto& pe_type = ctx_->platform->type_of(a.pe);
  const rel::ClrConfig& cfg = ctx_->clr_space->config(a.clr_index);
  // The deterministic (error-free) attempt time and power come from the same
  // analytical model, so the injector and the estimator share one truth.
  const rel::TaskMetrics metrics = ctx_->metrics.evaluate(impl, pe_type, cfg);
  const double attempt_time = metrics.min_ext;
  const double power = metrics.avg_power;

  const auto& hw = rel::hw_traits(cfg.hw);
  const auto& asw = rel::asw_traits(cfg.asw);
  const double lambda = ctx_->metrics.fault_model().lambda_seu;
  const double p_raw = 1.0 - std::exp(-lambda * attempt_time * pe_type.avf);

  // Per-attempt outcome sampling through the same masking chain as the
  // analytical model: upset -> hardware residual -> ASW correct/detect.
  enum class Outcome { Ok, Silent, Detected };
  auto sample_attempt = [&]() {
    if (!rng.chance(p_raw)) return Outcome::Ok;          // no upset
    if (!rng.chance(hw.residual)) return Outcome::Ok;    // spatially masked
    const double u = rng.uniform();
    if (u < asw.correct_coverage) return Outcome::Ok;    // corrected in place
    if (u < asw.detect_coverage) return Outcome::Detected;
    return Outcome::Silent;
  };

  AttemptResult result;
  result.busy_time = attempt_time;
  result.energy = attempt_time * power;

  Outcome outcome = sample_attempt();
  switch (cfg.ssw) {
    case rel::SswTechnique::None:
      result.failed = outcome != Outcome::Ok;
      break;

    case rel::SswTechnique::Retry: {
      // Up to k full re-executions of detected failures. A silent error is
      // invisible to the system and terminates the chain immediately.
      const int k = std::max<int>(1, cfg.ssw_param);
      int retries = 0;
      while (outcome == Outcome::Detected && retries < k) {
        ++retries;
        ++result.reexecutions;
        result.busy_time += attempt_time;
        result.energy += attempt_time * power;
        outcome = sample_attempt();
      }
      result.failed = outcome != Outcome::Ok;
      break;
    }

    case rel::SswTechnique::Checkpoint: {
      // A detected error rolls back one of k segments; a second consecutive
      // detection aborts (matching the analytical residual q^2 and expected
      // rollback time (q + q^2) * T/k).
      const int k = std::max<int>(1, cfg.ssw_param);
      const double segment = attempt_time / static_cast<double>(k);
      if (outcome == Outcome::Detected) {
        ++result.reexecutions;
        result.busy_time += segment;
        result.energy += segment * power;
        outcome = sample_attempt();
        if (outcome == Outcome::Detected) {
          ++result.reexecutions;
          result.busy_time += segment;
          result.energy += segment * power;
          result.failed = true;
          break;
        }
      }
      result.failed = outcome != Outcome::Ok;
      break;
    }
  }
  return result;
}

RunOutcome ReferenceInjector::run_once(const sched::Configuration& cfg, util::Rng& rng) const {
  const tg::TaskGraph& g = *ctx_->graph;
  if (cfg.size() != g.num_tasks()) {
    throw std::invalid_argument("FaultInjector: configuration size mismatch");
  }

  RunOutcome outcome;
  outcome.task_failed.assign(g.num_tasks(), false);

  // Same list-scheduling policy as the analytical estimator, with sampled
  // (retry-extended) durations instead of expectations.
  std::vector<std::size_t> pending(g.num_tasks());
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) pending[t] = g.in_edges(t).size();
  std::vector<double> finish(g.num_tasks(), 0.0);
  std::vector<double> pe_free(ctx_->platform->num_pes(), 0.0);
  std::vector<tg::TaskId> ready;
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
    if (pending[t] == 0) ready.push_back(t);
  }

  std::size_t done = 0;
  while (done < g.num_tasks()) {
    if (ready.empty()) throw std::logic_error("FaultInjector: cyclic graph");
    auto best = std::min_element(ready.begin(), ready.end(), [&](tg::TaskId a, tg::TaskId b) {
      if (cfg[a].priority != cfg[b].priority) return cfg[a].priority > cfg[b].priority;
      return a < b;
    });
    const tg::TaskId t = *best;
    ready.erase(best);

    double est = pe_free[cfg[t].pe];
    for (tg::EdgeId e : g.in_edges(t)) {
      const tg::Edge& edge = g.edge(e);
      const double comm =
          cfg[edge.src].pe != cfg[t].pe
              ? edge.comm_time * ctx_->platform->comm_factor(cfg[edge.src].pe, cfg[t].pe)
              : 0.0;
      est = std::max(est, finish[edge.src] + comm);
    }

    const AttemptResult exec = execute_task(t, cfg[t], rng);
    finish[t] = est + exec.busy_time;
    pe_free[cfg[t].pe] = finish[t];
    outcome.energy += exec.energy;
    outcome.task_failed[t] = exec.failed;
    outcome.reexecutions += exec.reexecutions;
    outcome.makespan = std::max(outcome.makespan, finish[t]);
    ++done;

    for (tg::EdgeId e : g.out_edges(t)) {
      const tg::TaskId dst = g.edge(e).dst;
      if (--pending[dst] == 0) ready.push_back(dst);
    }
  }

  double success = 0.0;
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!outcome.task_failed[t]) success += g.normalized_criticality(t);
  }
  outcome.weighted_success = success;
  return outcome;
}

InjectionAggregate ReferenceInjector::run_many(const sched::Configuration& cfg, std::size_t runs,
                                               util::Rng& rng) const {
  if (runs == 0) throw std::invalid_argument("FaultInjector: runs must be > 0");
  InjectionAggregate agg;
  agg.runs = runs;
  agg.task_error_rate.assign(ctx_->graph->num_tasks(), 0.0);
  double reexec_sum = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    const RunOutcome one = run_once(cfg, rng);
    agg.makespan.add(one.makespan);
    agg.energy.add(one.energy);
    agg.weighted_success.add(one.weighted_success);
    reexec_sum += static_cast<double>(one.reexecutions);
    for (std::size_t t = 0; t < one.task_failed.size(); ++t) {
      if (one.task_failed[t]) agg.task_error_rate[t] += 1.0;
    }
  }
  for (double& rate : agg.task_error_rate) rate /= static_cast<double>(runs);
  agg.mean_reexecutions = reexec_sum / static_cast<double>(runs);
  return agg;
}

}  // namespace clr::sim
