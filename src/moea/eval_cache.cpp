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
  // Collapse within-batch duplicates; only the first occurrence of each
  // distinct genome is evaluated. This matters even over a memoizing
  // problem: MappingProblem::evaluate_metrics_batch looks every genome of a
  // chunk up before it stores any, so a duplicate would run the kernel again.
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
      const auto [it, inserted] = seen.insert(ind);
      if (inserted) {
        unique.push_back(ind);
      } else {
        copies.emplace_back(ind, *it);
      }
    }
  }

  // Each chunk writes only its own individuals' evals, so the chunks can fan
  // out. Every chunk is one full SIMD block through Problem::evaluate_batch;
  // the boundaries are fixed by index arithmetic, so block composition, and
  // with it every result bit, is identical at any thread count.
  constexpr std::size_t kChunk = 8;  // == sched::BatchGenomes::kLanes
  const std::size_t chunks = (unique.size() + kChunk - 1) / kChunk;
  const auto evaluate_chunk = [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    const std::size_t count = std::min(kChunk, unique.size() - begin);
    problem_->evaluate_batch({unique.data() + begin, count});
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(chunks, evaluate_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) evaluate_chunk(c);
  }

  for (auto& [dup, source] : copies) dup->eval = source->eval;
}

}  // namespace clr::moea
