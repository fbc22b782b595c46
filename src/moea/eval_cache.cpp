#include "moea/eval_cache.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/hash.hpp"
#include "common/parallel.hpp"

namespace clr::moea {

std::uint64_t hash_genes(const std::vector<int>& genes) {
  util::WordHasher h(genes.size());
  for (int g : genes) h.add(static_cast<std::uint32_t>(g));
  return h.finish();
}

void BatchEvaluator::evaluate(const std::vector<Individual*>& batch) const {
  // Resolve cache hits and collapse within-batch duplicates; only the first
  // occurrence of each distinct genome is evaluated.
  std::vector<Individual*> unique;
  std::vector<std::pair<Individual*, Individual*>> copies;  // (dup, source)
  unique.reserve(batch.size());
  {
    // Keyed by the individuals themselves: hashing and equality read their
    // genes in place, so no genome is copied.
    struct GenesHash {
      std::size_t operator()(const Individual* ind) const {
        return static_cast<std::size_t>(hash_genes(ind->genes));
      }
    };
    struct GenesEq {
      bool operator()(const Individual* a, const Individual* b) const {
        return a->genes == b->genes;
      }
    };
    std::unordered_set<Individual*, GenesHash, GenesEq> seen;
    seen.reserve(batch.size());
    for (Individual* ind : batch) {
      if (cache_ != nullptr && cache_->lookup(ind->genes, &ind->eval)) continue;
      const auto [it, inserted] = seen.insert(ind);
      if (inserted) {
        unique.push_back(ind);
      } else {
        copies.emplace_back(ind, *it);
      }
    }
  }

  // Each iteration writes only its own individual's eval — safe to fan out.
  // Batched mode hands the pool SoA-block-sized chunks so every pool task
  // amortizes one full SIMD block through Problem::evaluate_batch; the chunk
  // boundaries are fixed by index arithmetic, so block composition — and
  // with it every result bit — is identical at any thread count (the
  // sequential path evaluates the same [0,8), [8,16), ... blocks).
  constexpr std::size_t kChunk = 8;  // == sched::BatchGenomes::kLanes
  if (pool_ != nullptr) {
    if (batched_) {
      const std::size_t chunks = (unique.size() + kChunk - 1) / kChunk;
      pool_->parallel_for(chunks, [&](std::size_t c) {
        const std::size_t begin = c * kChunk;
        const std::size_t count = std::min(kChunk, unique.size() - begin);
        problem_->evaluate_batch({unique.data() + begin, count});
      });
    } else {
      pool_->parallel_for(
          unique.size(), [&](std::size_t i) { unique[i]->eval = problem_->evaluate(unique[i]->genes); });
    }
  } else if (batched_) {
    problem_->evaluate_batch({unique.data(), unique.size()});
  } else {
    for (Individual* ind : unique) ind->eval = problem_->evaluate(ind->genes);
  }

  for (auto& [dup, source] : copies) dup->eval = source->eval;
  if (cache_ != nullptr) {
    for (const Individual* ind : unique) cache_->store(ind->genes, ind->eval);
  }
}

}  // namespace clr::moea
