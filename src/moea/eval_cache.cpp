#include "moea/eval_cache.hpp"

#include <algorithm>
#include <bit>

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
  // Each genome is hashed once, here; the hash keys an open-addressing table
  // of indices into `unique` and travels with its genome to the problem.
  std::vector<Individual*> unique;
  std::vector<std::uint64_t> hashes;  // hashes[u] = hash_genes(unique[u]->genes)
  std::vector<std::pair<Individual*, const Individual*>> copies;  // (dup, source)
  unique.reserve(batch.size());
  hashes.reserve(batch.size());
  {
    constexpr std::size_t kEmpty = ~std::size_t{0};
    const std::size_t mask = std::bit_ceil(2 * batch.size() + 1) - 1;
    std::vector<std::size_t> slots(mask + 1, kEmpty);
    for (Individual* ind : batch) {
      const std::uint64_t hash = hash_genes(ind->genes);
      std::size_t s = static_cast<std::size_t>(hash) & mask;
      while (slots[s] != kEmpty &&
             (hashes[slots[s]] != hash || unique[slots[s]]->genes != ind->genes)) {
        s = (s + 1) & mask;
      }
      if (slots[s] == kEmpty) {
        slots[s] = unique.size();
        unique.push_back(ind);
        hashes.push_back(hash);
      } else {
        copies.emplace_back(ind, unique[slots[s]]);
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
    problem_->evaluate_batch({unique.data() + begin, count}, {hashes.data() + begin, count});
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(chunks, evaluate_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) evaluate_chunk(c);
  }

  for (auto& [dup, source] : copies) dup->eval = source->eval;
}

}  // namespace clr::moea
