#include "schedule/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "schedule/compiled_graph.hpp"

namespace clr::sched {

void EvalContext::check() const {
  if (graph == nullptr || platform == nullptr || impls == nullptr || clr_space == nullptr) {
    throw std::invalid_argument("EvalContext: null component");
  }
  if (impls->num_tasks() != graph->num_tasks()) {
    throw std::invalid_argument("EvalContext: implementation set / graph size mismatch");
  }
}

ScheduleResult ListScheduler::run(const EvalContext& ctx, const Configuration& cfg) const {
  EvalScratch scratch;
  return CompiledGraph(ctx).schedule(cfg, scratch);
}

std::string validate_schedule(const EvalContext& ctx, const Configuration& cfg,
                              const ScheduleResult& result) {
  const tg::TaskGraph& g = *ctx.graph;
  std::ostringstream err;

  if (result.tasks.size() != g.num_tasks()) return "task count mismatch";

  constexpr double kEps = 1e-9;
  // Precedence + communication.
  for (const auto& edge : g.edges()) {
    const double comm =
        cfg[edge.src].pe != cfg[edge.dst].pe
            ? edge.comm_time * ctx.platform->comm_factor(cfg[edge.src].pe, cfg[edge.dst].pe)
            : 0.0;
    const double arrival = result.tasks[edge.src].end + comm;
    if (result.tasks[edge.dst].start + kEps < arrival) {
      err << "edge " << edge.id << ": dst starts before data arrives";
      return err.str();
    }
  }
  // PE exclusivity: overlapping intervals on the same PE.
  for (tg::TaskId a = 0; a < g.num_tasks(); ++a) {
    for (tg::TaskId b = a + 1; b < g.num_tasks(); ++b) {
      if (cfg[a].pe != cfg[b].pe) continue;
      const bool overlap = result.tasks[a].start + kEps < result.tasks[b].end &&
                           result.tasks[b].start + kEps < result.tasks[a].end;
      if (overlap) {
        err << "tasks " << a << " and " << b << " overlap on PE " << cfg[a].pe;
        return err.str();
      }
    }
  }
  // Makespan.
  double last = 0.0;
  for (const auto& ts : result.tasks) last = std::max(last, ts.end);
  if (std::abs(last - result.makespan) > 1e-6) return "makespan mismatch";
  // Durations.
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
    const double dur = result.tasks[t].end - result.tasks[t].start;
    if (std::abs(dur - result.tasks[t].metrics.avg_ext) > 1e-6) {
      err << "task " << t << ": duration != AvgExT";
      return err.str();
    }
  }
  return {};
}

}  // namespace clr::sched
