#include "moea/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace clr::moea {

std::vector<std::vector<std::size_t>> non_dominated_sort(std::vector<Individual>& pop) {
  const std::size_t n = pop.size();
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<std::size_t> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (constrained_dominates(pop[i].eval, pop[j].eval)) {
        dominated_by[i].push_back(j);
        ++domination_count[j];
      } else if (constrained_dominates(pop[j].eval, pop[i].eval)) {
        dominated_by[j].push_back(i);
        ++domination_count[i];
      }
    }
  }

  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (domination_count[i] == 0) {
      pop[i].rank = 0;
      current.push_back(i);
    }
  }
  while (!current.empty()) {
    fronts.push_back(current);
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      for (std::size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) {
          pop[j].rank = static_cast<int>(fronts.size());
          next.push_back(j);
        }
      }
    }
    current = std::move(next);
  }
  return fronts;
}

void assign_crowding(std::vector<Individual>& pop, const std::vector<std::size_t>& front) {
  if (front.empty()) return;
  const std::size_t m = pop[front[0]].eval.objectives.size();
  for (std::size_t i : front) pop[i].crowding = 0.0;
  if (front.size() <= 2) {
    for (std::size_t i : front) pop[i].crowding = std::numeric_limits<double>::infinity();
    return;
  }
  std::vector<std::size_t> order(front);
  for (std::size_t k = 0; k < m; ++k) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return pop[a].eval.objectives[k] < pop[b].eval.objectives[k];
    });
    const double lo = pop[order.front()].eval.objectives[k];
    const double hi = pop[order.back()].eval.objectives[k];
    pop[order.front()].crowding = std::numeric_limits<double>::infinity();
    pop[order.back()].crowding = std::numeric_limits<double>::infinity();
    if (hi - lo <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < order.size(); ++i) {
      pop[order[i]].crowding += (pop[order[i + 1]].eval.objectives[k] -
                                 pop[order[i - 1]].eval.objectives[k]) /
                                (hi - lo);
    }
  }
}

namespace {

bool crowded_better(const Individual& a, const Individual& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.crowding > b.crowding;
}

}  // namespace

MoeaResult Nsga2::run(const Problem& problem, util::Rng& rng,
                      const std::vector<std::vector<int>>& seeds, util::ThreadPool* pool,
                      const GaRunControl* control) const {
  if (params_.population < 2) throw std::invalid_argument("Nsga2: population must be >= 2");
  GenerationSteps steps;
  steps.generation_span = "nsga2.generation";
  steps.eval_span = "nsga2.eval_batch";
  steps.prefer = crowded_better;
  // Environmental selection: rank and crowd the candidates, then fill the
  // next population front by front, breaking the last front by crowding.
  // Archive copies are taken before this, so they carry no rank or crowding.
  steps.select = [this](std::vector<Individual>& candidates) {
    const auto fronts = non_dominated_sort(candidates);
    for (const auto& f : fronts) assign_crowding(candidates, f);
    if (candidates.size() <= params_.population) return;

    std::vector<Individual> next;
    next.reserve(params_.population);
    for (const auto& front : fronts) {
      if (next.size() + front.size() <= params_.population) {
        for (std::size_t i : front) next.push_back(candidates[i]);
      } else {
        std::vector<std::size_t> sorted(front);
        std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
          return candidates[a].crowding > candidates[b].crowding;
        });
        for (std::size_t i : sorted) {
          if (next.size() >= params_.population) break;
          next.push_back(candidates[i]);
        }
      }
      if (next.size() >= params_.population) break;
    }
    candidates = std::move(next);
  };
  return run_generations(problem, rng, params_, seeds, pool, control, steps);
}

}  // namespace clr::moea
