#include "moea/problem.hpp"

#include <stdexcept>

#include "moea/eval_cache.hpp"

namespace clr::moea {

void Problem::evaluate_batch(std::span<Individual* const> batch,
                             std::span<const std::uint64_t> /*hashes*/) const {
  for (Individual* ind : batch) ind->eval = evaluate(ind->genes);
}

void Problem::evaluate_batch(std::span<Individual* const> batch) const {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(batch.size());
  for (const Individual* ind : batch) hashes.push_back(hash_genes(ind->genes));
  evaluate_batch(batch, hashes);
}

std::vector<int> Problem::random_genes(util::Rng& rng) const {
  std::vector<int> genes(num_genes());
  for (std::size_t i = 0; i < genes.size(); ++i) {
    const int dom = domain_size(i);
    if (dom <= 0) throw std::logic_error("Problem: empty gene domain");
    genes[i] = rng.uniform_int(0, dom - 1);
  }
  return genes;
}

void Problem::repair(std::vector<int>& genes) const {
  if (genes.size() != num_genes()) throw std::invalid_argument("repair: gene count mismatch");
  for (std::size_t i = 0; i < genes.size(); ++i) {
    const int dom = domain_size(i);
    int g = genes[i] % dom;
    if (g < 0) g += dom;
    genes[i] = g;
  }
}

}  // namespace clr::moea
