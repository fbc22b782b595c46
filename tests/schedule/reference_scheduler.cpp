#include "reference_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace clr::sched {

namespace {

rel::TaskMetrics task_metrics_for(const EvalContext& ctx, const Configuration& cfg,
                                  tg::TaskId t) {
  const TaskAssignment& a = cfg[t];
  const auto& impl_list = ctx.impls->for_task(t);
  if (a.impl_index >= impl_list.size()) {
    throw std::invalid_argument("ListScheduler: impl_index out of range");
  }
  const rel::Implementation& impl = impl_list[a.impl_index];
  if (a.pe >= ctx.platform->num_pes()) {
    throw std::invalid_argument("ListScheduler: PE id out of range");
  }
  const plat::PeType& pe_type = ctx.platform->type_of(a.pe);
  if (impl.pe_type != pe_type.id) {
    throw std::invalid_argument("ListScheduler: implementation incompatible with bound PE");
  }
  if (a.clr_index >= ctx.clr_space->size()) {
    throw std::invalid_argument("ListScheduler: clr_index out of range");
  }
  return ctx.metrics.evaluate(impl, pe_type, ctx.clr_space->config(a.clr_index));
}

}  // namespace

ScheduleResult ReferenceScheduler::run(const EvalContext& ctx, const Configuration& cfg) const {
  ctx.check();
  const tg::TaskGraph& g = *ctx.graph;
  if (cfg.size() != g.num_tasks()) {
    throw std::invalid_argument("ListScheduler: configuration size mismatch");
  }

  ScheduleResult result;
  result.tasks.resize(g.num_tasks());

  // Pre-compute per-task metrics (CLR-dependent).
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
    result.tasks[t].metrics = task_metrics_for(ctx, cfg, t);
  }

  // Priority-driven list scheduling.
  std::vector<std::size_t> pending(g.num_tasks(), 0);
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) pending[t] = g.in_edges(t).size();

  std::vector<double> pe_free(ctx.platform->num_pes(), 0.0);
  std::vector<tg::TaskId> ready;
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
    if (pending[t] == 0) ready.push_back(t);
  }

  std::size_t done = 0;
  while (done < g.num_tasks()) {
    if (ready.empty()) {
      throw std::logic_error("ListScheduler: no ready task (cyclic graph?)");
    }
    // Highest priority first; ties broken by lower task id for determinism.
    auto best = std::min_element(ready.begin(), ready.end(), [&](tg::TaskId a, tg::TaskId b) {
      if (cfg[a].priority != cfg[b].priority) return cfg[a].priority > cfg[b].priority;
      return a < b;
    });
    const tg::TaskId t = *best;
    ready.erase(best);

    // Earliest start: bound PE free, and all inputs arrived (cross-PE edges
    // pay the edge's communication time).
    double est = pe_free[cfg[t].pe];
    for (tg::EdgeId e : g.in_edges(t)) {
      const tg::Edge& edge = g.edge(e);
      const double comm =
          cfg[edge.src].pe != cfg[t].pe
              ? edge.comm_time * ctx.platform->comm_factor(cfg[edge.src].pe, cfg[t].pe)
              : 0.0;
      est = std::max(est, result.tasks[edge.src].end + comm);
    }
    result.tasks[t].start = est;
    result.tasks[t].end = est + result.tasks[t].metrics.avg_ext;
    pe_free[cfg[t].pe] = result.tasks[t].end;
    ++done;

    for (tg::EdgeId e : g.out_edges(t)) {
      const tg::TaskId dst = g.edge(e).dst;
      if (--pending[dst] == 0) ready.push_back(dst);
    }
  }

  // --- Table 3 system metrics. ---
  // Sapp (Eq. 1): max end time.
  for (const auto& ts : result.tasks) result.makespan = std::max(result.makespan, ts.end);

  // Fapp (Eq. 2): criticality-weighted sum of per-task success probability.
  double frel = 0.0;
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
    frel += (1.0 - result.tasks[t].metrics.err_prob) * g.normalized_criticality(t);
  }
  result.func_rel = frel;

  // Japp (Eq. 3): sum of AvgExT * W.
  double energy = 0.0;
  for (const auto& ts : result.tasks) energy += ts.metrics.energy();
  result.energy = energy;

  // System MTTF (lifetime extension): series model over the used PEs, each
  // aging only while executing (duty-cycle-adjusted).
  if (result.makespan > 0.0) {
    std::vector<double> aging_rate(ctx.platform->num_pes(), 0.0);
    for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
      const auto& m = result.tasks[t].metrics;
      if (m.mttf > 0.0) {
        aging_rate[cfg[t].pe] += (m.avg_ext / result.makespan) / m.mttf;
      }
    }
    double min_mttf = std::numeric_limits<double>::infinity();
    for (double rate : aging_rate) {
      if (rate > 0.0) min_mttf = std::min(min_mttf, 1.0 / rate);
    }
    result.system_mttf = std::isfinite(min_mttf) ? min_mttf : 0.0;
  }

  // Wapp (Eq. 3): peak of the summed power profile — sweep start/end events.
  struct Event {
    double time;
    double delta;
  };
  std::vector<Event> events;
  events.reserve(2 * g.num_tasks());
  for (const auto& ts : result.tasks) {
    events.push_back({ts.start, ts.metrics.avg_power});
    events.push_back({ts.end, -ts.metrics.avg_power});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;  // process releases before acquisitions at ties
  });
  double current = 0.0;
  for (const auto& ev : events) {
    current += ev.delta;
    result.peak_power = std::max(result.peak_power, current);
  }

  return result;
}

}  // namespace clr::sched
