#include "schedule/scheduler.hpp"

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

}  // namespace clr::sched
