#pragma once
// Abstract integer-chromosome multi-objective problem. The DSE layer
// implements this for the CLR-integrated mapping space of Eq. (4).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "moea/individual.hpp"

namespace clr::moea {

class Problem {
 public:
  virtual ~Problem() = default;

  /// Number of integer genes.
  virtual std::size_t num_genes() const = 0;

  /// Domain size of gene `locus`; valid alleles are [0, domain_size).
  virtual int domain_size(std::size_t locus) const = 0;

  /// Number of (minimized) objectives.
  virtual std::size_t num_objectives() const = 0;

  /// Evaluate a chromosome. Must be deterministic.
  virtual Evaluation evaluate(const std::vector<int>& genes) const = 0;

  /// Evaluate a batch, filling ind->eval for every individual. `hashes[i]`
  /// is hash_genes(batch[i]->genes) (moea/eval_cache.hpp): BatchEvaluator
  /// computes it once per individual for its dedup, and a genome memo keys
  /// on it instead of hashing again. Semantically identical to calling
  /// evaluate() per individual — the default does exactly that; problems
  /// with a vectorized kernel override it (dse::MappingProblem routes
  /// through CompiledGraph::evaluate_batch). Results must not depend on how
  /// callers partition work into batches.
  virtual void evaluate_batch(std::span<Individual* const> batch,
                              std::span<const std::uint64_t> hashes) const;

  /// evaluate_batch with every genome hashed here.
  void evaluate_batch(std::span<Individual* const> batch) const;

  /// Uniform-random chromosome within the domains.
  std::vector<int> random_genes(util::Rng& rng) const;

  /// Clamp/wrap out-of-domain alleles (used after seeding from foreign
  /// chromosomes).
  void repair(std::vector<int>& genes) const;
};

}  // namespace clr::moea
