#pragma once
// Genetic operators with the paper's §5.1 parameters as defaults:
// crossover probability 0.7, mutation probability 0.03 (per gene),
// tournament selection with 5 individuals.

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "moea/problem.hpp"

namespace clr::moea {

struct GaParams {
  std::size_t population = 80;
  std::size_t generations = 100;
  double crossover_prob = 0.7;   ///< per-pair (paper §5.1)
  double mutation_prob = 0.03;   ///< per-gene reset (paper §5.1)
  std::size_t tournament_size = 5;  ///< (paper §5.1)
  /// Evaluation concurrency when the caller does not share a pool with the
  /// engine's run(): 0 = std::thread::hardware_concurrency(). Results are
  /// identical at any thread count (generate-then-evaluate contract).
  std::size_t threads = 0;
};

/// Tournament selection: draw `size` competitors, return the index of the one
/// `better(a, b)` prefers (strict "a beats b" predicate).
std::size_t tournament(std::size_t population_size, std::size_t size,
                       const std::function<bool(std::size_t, std::size_t)>& better,
                       util::Rng& rng);

/// Uniform crossover: with probability `prob` swap each gene pair with 0.5.
/// Draws what chance(prob), then chance(0.5) per gene, draw: each gene's coin
/// is one buffered engine word compared with Coin(0.5)'s threshold.
void uniform_crossover(std::vector<int>& a, std::vector<int>& b, double prob, util::Rng& rng);

/// Per-gene reset mutation within the problem's domains: each gene whose
/// coin lands takes a uniform allele. Draws what chance(p) per gene, then the
/// allele after each coin that lands, draw; the buffered engine words are
/// scanned for the next coin that lands, so only a mutated gene costs more
/// than a comparison.
void reset_mutation(const Problem& problem, std::vector<int>& genes, const util::Coin& mutation,
                    util::Rng& rng);

/// reset_mutation with the Coin of `prob` (built per call; a caller that
/// mutates many genomes at one probability builds it once).
void reset_mutation(const Problem& problem, std::vector<int>& genes, double prob, util::Rng& rng);

}  // namespace clr::moea
