#include "moea/nsga2.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace clr::moea {

std::vector<std::vector<std::size_t>> non_dominated_sort(std::vector<Individual>& pop) {
  // Row i of the bitset holds the members i constrained-dominates, one bit
  // each; count[j] is how many members dominate j. The rule splits by
  // feasibility: a feasible member dominates every infeasible one, two
  // infeasible members compare by violation, and two feasible ones by Pareto
  // dominance, where a dominates b iff it is better somewhere and b nowhere
  // (a NaN objective compares as neither). Each pair is decided once, with
  // no branch on its outcome.
  const std::size_t n = pop.size();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> dominates(n * words, 0);
  std::vector<std::size_t> count(n, 0);
  const auto mark = [&](std::size_t i, std::size_t j, bool d) {
    dominates[i * words + j / 64] |= std::uint64_t{d} << (j % 64);
    count[j] += d;
  };
  std::vector<std::size_t> feasible, infeasible;
  for (std::size_t i = 0; i < n; ++i) {
    (pop[i].eval.feasible() ? feasible : infeasible).push_back(i);
  }
  for (const std::size_t i : feasible) {
    for (const std::size_t j : infeasible) mark(i, j, true);
  }
  for (std::size_t a = 0; a < infeasible.size(); ++a) {
    const std::size_t i = infeasible[a];
    for (std::size_t b = a + 1; b < infeasible.size(); ++b) {
      const std::size_t j = infeasible[b];
      mark(i, j, pop[i].eval.violation < pop[j].eval.violation);
      mark(j, i, pop[j].eval.violation < pop[i].eval.violation);
    }
  }
  // Feasible members of different dimension cannot be compared (dominates()
  // throws the same error); of one dimension, they are read from a flat copy.
  const std::size_t m = feasible.empty() ? 0 : pop[feasible[0]].eval.objectives.size();
  std::vector<double> objectives;
  objectives.reserve(feasible.size() * m);
  for (const std::size_t i : feasible) {
    const std::vector<double>& o = pop[i].eval.objectives;
    if (o.size() != m) throw std::invalid_argument("dominates: dimension mismatch");
    objectives.insert(objectives.end(), o.begin(), o.end());
  }
  for (std::size_t a = 0; a < feasible.size(); ++a) {
    const double* oa = objectives.data() + a * m;
    for (std::size_t b = a + 1; b < feasible.size(); ++b) {
      const double* ob = objectives.data() + b * m;
      bool a_better = false;
      bool b_better = false;
      for (std::size_t k = 0; k < m; ++k) {
        a_better |= oa[k] < ob[k];
        b_better |= ob[k] < oa[k];
      }
      mark(feasible[a], feasible[b], a_better && !b_better);
      mark(feasible[b], feasible[a], b_better && !a_better);
    }
  }

  // Walking a row in increasing index order visits the members i dominates
  // in the order the textbook's per-member lists hold them (its i < j pair
  // loop fills them ascending), so the fronts, their order and the ranks
  // follow it exactly.
  std::vector<std::vector<std::size_t>> fronts;
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (count[i] == 0) {
      pop[i].rank = 0;
      current.push_back(i);
    }
  }
  while (!current.empty()) {
    fronts.push_back(std::move(current));
    current = {};
    const int rank = static_cast<int>(fronts.size());
    for (const std::size_t i : fronts.back()) {
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = dominates[i * words + w]; bits != 0; bits &= bits - 1) {
          const std::size_t j = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          if (--count[j] == 0) {
            pop[j].rank = rank;
            current.push_back(j);
          }
        }
      }
    }
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
  // Environmental selection: rank the candidates, then move them into the
  // next population front by front, breaking the last front by crowding.
  // Fronts past it are dropped whole, so they are never crowded. Archive
  // copies are taken before this, so they carry no rank or crowding.
  steps.select = [this](std::vector<Individual>& candidates) {
    const auto fronts = non_dominated_sort(candidates);
    if (candidates.size() <= params_.population) {
      for (const auto& f : fronts) assign_crowding(candidates, f);
      return;
    }
    std::vector<Individual> next;
    next.reserve(params_.population);
    for (const auto& front : fronts) {
      const std::size_t room = params_.population - next.size();
      if (room == 0) break;
      assign_crowding(candidates, front);
      if (front.size() <= room) {
        for (const std::size_t i : front) next.push_back(std::move(candidates[i]));
        continue;
      }
      std::vector<std::size_t> sorted(front);
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        return candidates[a].crowding > candidates[b].crowding;
      });
      for (std::size_t r = 0; r < room; ++r) next.push_back(std::move(candidates[sorted[r]]));
    }
    candidates = std::move(next);
  };
  return run_generations(problem, rng, params_, seeds, pool, control, steps);
}

}  // namespace clr::moea
