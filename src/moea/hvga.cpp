#include "moea/hvga.hpp"

#include <algorithm>
#include <stdexcept>

#include "moea/hypervolume.hpp"

namespace clr::moea {

double HvGa::fitness_of(const Evaluation& eval) const {
  if (eval.objectives.size() != reference_.size()) {
    throw std::invalid_argument("HvGa: objective/reference dimension mismatch");
  }
  return signed_point_hypervolume(eval.objectives, reference_, scale_);
}

HvGa::Result HvGa::run(const Problem& problem, util::Rng& rng,
                       const std::vector<std::vector<int>>& seeds, util::ThreadPool* pool,
                       const GaRunControl* control) const {
  if (params_.population < 2) throw std::invalid_argument("HvGa: population must be >= 2");
  GenerationSteps steps;
  steps.generation_span = "hvga.generation";
  steps.eval_span = "hvga.eval_batch";
  steps.prefer = [](const Individual& a, const Individual& b) { return a.fitness > b.fitness; };
  steps.evaluated = [this](Individual& ind) { ind.fitness = fitness_of(ind.eval); };
  // (mu + lambda) truncation on scalar fitness keeps the best sweepers; the
  // archive preserves diversity of the non-dominated set.
  steps.select = [this](std::vector<Individual>& candidates) {
    if (candidates.size() <= params_.population) return;
    std::sort(candidates.begin(), candidates.end(),
              [](const Individual& a, const Individual& b) { return a.fitness > b.fitness; });
    candidates.resize(params_.population);
  };
  MoeaResult run = run_generations(problem, rng, params_, seeds, pool, control, steps);

  Result result;
  result.population = std::move(run.population);
  result.archive = std::move(run.archive);
  result.best_fitness = result.population.empty() ? 0.0 : result.population.front().fitness;
  result.complete = run.complete;
  return result;
}

}  // namespace clr::moea
