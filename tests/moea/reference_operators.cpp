#include "reference_operators.hpp"

#include <stdexcept>
#include <utility>

namespace clr::moea::reference {

void uniform_crossover(std::vector<int>& a, std::vector<int>& b, double prob, util::Rng& rng) {
  if (a.size() != b.size()) throw std::invalid_argument("uniform_crossover: size mismatch");
  if (!rng.chance(prob)) return;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (rng.chance(0.5)) std::swap(a[i], b[i]);
  }
}

void reset_mutation(const Problem& problem, std::vector<int>& genes, double prob,
                    util::Rng& rng) {
  if (genes.size() != problem.num_genes()) {
    throw std::invalid_argument("reset_mutation: gene count mismatch");
  }
  for (std::size_t i = 0; i < genes.size(); ++i) {
    if (rng.chance(prob)) genes[i] = rng.uniform_int(0, problem.domain_size(i) - 1);
  }
}

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

}  // namespace clr::moea::reference
