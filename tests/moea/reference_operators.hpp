#pragma once
// Reference oracles for the GA bookkeeping: uniform crossover and reset
// mutation with one double-valued Rng::chance per gene, and the fast
// non-dominated sort with a list of dominated members per member, kept
// verbatim from before the operators read buffered engine words and the sort
// used a domination bitset. test_operator_differential.cpp holds
// moea::uniform_crossover, moea::reset_mutation and moea::non_dominated_sort
// to exact equality with them: the same genes, the same engine state, the
// same fronts in the same order and the same ranks (DESIGN.md §5.5, §5.6).
// Keep them as plain and as unchanged as possible.

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "moea/individual.hpp"
#include "moea/problem.hpp"

namespace clr::moea::reference {

/// With chance(prob), swap each gene pair on chance(0.5).
void uniform_crossover(std::vector<int>& a, std::vector<int>& b, double prob, util::Rng& rng);

/// Each gene on chance(prob) takes uniform_int(0, domain_size - 1).
void reset_mutation(const Problem& problem, std::vector<int>& genes, double prob, util::Rng& rng);

/// Deb's fast non-dominated sort under constrained_dominates: fronts of
/// indices, and Individual::rank written for every member of a front.
std::vector<std::vector<std::size_t>> non_dominated_sort(std::vector<Individual>& pop);

}  // namespace clr::moea::reference
