#include "moea/eval_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <span>
#include <thread>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace clr::moea {
namespace {

/// Deterministic problem that counts how often evaluate() actually runs.
class CountingProblem : public Problem {
 public:
  std::size_t num_genes() const override { return 4; }
  int domain_size(std::size_t) const override { return 1000; }
  std::size_t num_objectives() const override { return 2; }
  Evaluation evaluate(const std::vector<int>& genes) const override {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    double sum = 0.0;
    for (int g : genes) sum += g;
    return Evaluation{{sum, -sum}, genes[0] == 0 ? 1.0 : 0.0};
  }

  mutable std::atomic<std::uint64_t> evaluations{0};
};

TEST(HashGenes, IsDeterministicAndDiscriminates) {
  EXPECT_EQ(hash_genes({1, 2, 3}), hash_genes({1, 2, 3}));
  EXPECT_NE(hash_genes({1, 2, 3}), hash_genes({3, 2, 1}));
  EXPECT_NE(hash_genes({0}), hash_genes({0, 0}));
  EXPECT_NE(hash_genes({-1}), hash_genes({1}));
  hash_genes({});  // empty chromosome must not crash
}

/// A payload that owns heap storage (the objective vector), so copies into
/// and out of the memo are checked too.
using EvaluationCache = GenomeCache<Evaluation>;

TEST(GenomeCache, HitReturnsTheExactCachedEvaluation) {
  EvaluationCache cache(64);
  const std::vector<int> genes{4, 8, 15, 16};
  const Evaluation stored{{1.25, -3.5, 7.0}, 0.125};
  cache.store(genes, stored);

  Evaluation out;
  ASSERT_TRUE(cache.lookup(genes, &out));
  EXPECT_EQ(out.objectives, stored.objectives);
  EXPECT_EQ(out.violation, stored.violation);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(GenomeCache, MissLeavesOutputUntouchedAndCounts) {
  EvaluationCache cache(64);
  Evaluation out{{9.0}, 9.0};
  EXPECT_FALSE(cache.lookup({1, 2}, &out));
  EXPECT_EQ(out.objectives, (std::vector<double>{9.0}));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(GenomeCache, StoreOverwritesExistingKey) {
  EvaluationCache cache(64);
  cache.store({7}, Evaluation{{1.0}, 0.0});
  cache.store({7}, Evaluation{{2.0}, 0.5});
  Evaluation out;
  ASSERT_TRUE(cache.lookup({7}, &out));
  EXPECT_DOUBLE_EQ(out.objectives[0], 2.0);
  EXPECT_DOUBLE_EQ(out.violation, 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GenomeCache, BoundedSizeEvictsOldestEntries) {
  EvaluationCache cache(32);  // 2 entries per shard
  for (int i = 0; i < 500; ++i) {
    cache.store({i, i + 1}, Evaluation{{static_cast<double>(i)}, 0.0});
  }
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.evictions(), 0u);
  // The newest entry must still be present (FIFO evicts from the front).
  Evaluation out;
  EXPECT_TRUE(cache.lookup({499, 500}, &out));
  EXPECT_DOUBLE_EQ(out.objectives[0], 499.0);
}

TEST(GenomeCache, ClearEmptiesEveryShard) {
  EvaluationCache cache(64);
  for (int i = 0; i < 40; ++i) cache.store({i}, Evaluation{{0.0}, 0.0});
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

using IntCache = GenomeCache<int>;

std::size_t shard_of(const std::vector<int>& genes) {
  return IntCache::shard_of(hash_genes(genes));
}

/// A value only `genes` maps to, so a hit can be checked against its genome.
int value_of(const std::vector<int>& genes) {
  std::uint32_t v = 17;
  for (int g : genes) v = v * 31u + static_cast<std::uint32_t>(g);
  return static_cast<int>(v);
}

TEST(GenomeCache, EachOverflowEvictsExactlyTheOldestEntryOfItsShard) {
  IntCache cache(32);  // 2 entries per shard
  ASSERT_EQ(cache.capacity(), 32u);
  std::vector<std::deque<std::vector<int>>> model(IntCache::kShards);
  for (int i = 0; i < 400; ++i) {
    const std::vector<int> genes{i, 3 * i, 7};
    const std::uint64_t evictions_before = cache.evictions();
    cache.store(genes, value_of(genes));
    auto& fifo = model[shard_of(genes)];
    fifo.push_back(genes);
    std::vector<int> evicted;
    if (fifo.size() > 2) {
      evicted = fifo.front();
      fifo.pop_front();
    }
    ASSERT_EQ(cache.evictions() - evictions_before, evicted.empty() ? 0u : 1u) << "store " << i;
    int out = 0;
    if (!evicted.empty()) {
      EXPECT_FALSE(cache.lookup(evicted, &out)) << "store " << i;
    }
    for (const auto& kept : fifo) {
      ASSERT_TRUE(cache.lookup(kept, &out)) << "store " << i;
      EXPECT_EQ(out, value_of(kept));
    }
  }
  std::size_t resident = 0;
  for (const auto& fifo : model) resident += fifo.size();
  EXPECT_EQ(cache.size(), resident);
  EXPECT_EQ(cache.evictions(), 400u - resident);
}

TEST(GenomeCache, EvictedGenomesMiss) {
  IntCache cache(16);  // 1 entry per shard
  std::vector<std::vector<int>> stored;
  for (int i = 0; i < 200; ++i) {
    stored.push_back({i, i, i + 1});
    cache.store(stored.back(), value_of(stored.back()));
  }
  // Per shard only the newest genome survives; every older one must miss.
  std::vector<int> newest(IntCache::kShards, -1);
  for (int i = 0; i < 200; ++i) newest[shard_of(stored[i])] = i;
  for (int i = 0; i < 200; ++i) {
    int out = -1;
    const bool hit = cache.lookup(stored[i], &out);
    EXPECT_EQ(hit, newest[shard_of(stored[i])] == i) << "genome " << i;
    if (hit) {
      EXPECT_EQ(out, value_of(stored[i]));
    }
  }
}

TEST(GenomeCache, HitNeverReturnsAnotherGenomesValue) {
  IntCache cache(64);
  util::Rng rng(31);
  std::vector<std::vector<int>> genomes;
  for (int i = 0; i < 300; ++i) {
    std::vector<int> g(1 + rng.index(6));
    for (int& x : g) x = static_cast<int>(rng.index(3));  // many near-duplicates
    genomes.push_back(g);
  }
  for (int round = 0; round < 3; ++round) {
    for (const auto& g : genomes) {
      int out = 0;
      if (cache.lookup(g, &out)) {
        EXPECT_EQ(out, value_of(g));
      } else {
        cache.store(g, value_of(g));
      }
    }
  }
  EXPECT_GT(cache.hits(), 0u);
}

TEST(GenomeCache, RestoringAKeyNeitherGrowsNorEnqueuesItTwice) {
  IntCache cache(32);  // 2 entries per shard
  const std::vector<int> a{1, 2, 3};
  for (int i = 0; i < 1000; ++i) cache.store(a, i);
  EXPECT_EQ(cache.size(), 1u);
  int out = -1;
  ASSERT_TRUE(cache.lookup(a, &out));
  EXPECT_EQ(out, 999);  // the last store wins

  // Three more genomes in a's shard: a re-enqueued key would be evicted
  // twice, so exactly the two oldest distinct keys must go.
  std::vector<std::vector<int>> same_shard;
  for (int i = 0; same_shard.size() < 3; ++i) {
    std::vector<int> g{i, -i, 42};
    if (shard_of(g) == shard_of(a)) same_shard.push_back(g);
  }
  for (const auto& g : same_shard) cache.store(g, value_of(g));
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(a, &out));
  EXPECT_FALSE(cache.lookup(same_shard[0], &out));
  ASSERT_TRUE(cache.lookup(same_shard[1], &out));
  EXPECT_EQ(out, value_of(same_shard[1]));
  ASSERT_TRUE(cache.lookup(same_shard[2], &out));
  EXPECT_EQ(out, value_of(same_shard[2]));
}

TEST(GenomeCache, ClearThenReuseWorks) {
  IntCache cache(32);
  for (int i = 0; i < 100; ++i) cache.store({i, 1}, i);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  int out = -1;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(cache.lookup({i, 1}, &out));

  // Reuse past capacity: eviction must only ever see keys stored after the
  // clear (a stale FIFO pointer would be a use-after-free under ASan).
  const std::uint64_t evictions_before = cache.evictions();
  for (int i = 0; i < 300; ++i) cache.store({i, 2}, value_of({i, 2}));
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_EQ(cache.evictions() - evictions_before, 300u - cache.size());
  ASSERT_TRUE(cache.lookup({299, 2}, &out));
  EXPECT_EQ(out, value_of({299, 2}));
}

TEST(GenomeCache, ConcurrentStressHitsMatchTheirGenomes) {
  IntCache cache(32);
  constexpr int kThreads = 8;
  std::atomic<std::uint64_t> wrong{0}, hits{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(1000 + w);
      for (int i = 0; i < 4000; ++i) {
        const std::vector<int> g{static_cast<int>(rng.index(96)),
                                 static_cast<int>(rng.index(3)), 5};
        int out = 0;
        if (cache.lookup(g, &out)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (out != value_of(g)) wrong.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.store(g, value_of(g));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_EQ(cache.hits() + cache.misses(), static_cast<std::uint64_t>(kThreads) * 4000u);
}

TEST(HashGenes, SpreadsNinetyTaskGenomesOverEveryShard) {
  constexpr std::size_t kShards = 16;
  constexpr std::size_t kGenomes = 10000;
  util::Rng rng(90);
  std::vector<std::size_t> per_shard(kShards, 0);
  for (std::size_t i = 0; i < kGenomes; ++i) {
    std::vector<int> g(4 * 90);
    for (std::size_t k = 0; k < g.size(); ++k) {
      g[k] = static_cast<int>(rng.index(k % 4 == 3 ? 90 : 8));  // PE/impl/CLR/priority genes
    }
    ++per_shard[(hash_genes(g) >> 48) % kShards];
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(per_shard[s], 0u) << "shard " << s;
    EXPECT_LE(per_shard[s], 2 * kGenomes / kShards) << "shard " << s;
  }
}

TEST(BatchEvaluator, DeduplicatesIdenticalGenomesWithinABatch) {
  CountingProblem prob;
  BatchEvaluator evaluator(prob);
  std::vector<Individual> group(6);
  group[0].genes = {1, 2, 3, 4};
  group[1].genes = {5, 6, 7, 8};
  group[2].genes = {1, 2, 3, 4};  // duplicate of 0
  group[3].genes = {1, 2, 3, 4};  // duplicate of 0
  group[4].genes = {5, 6, 7, 8};  // duplicate of 1
  group[5].genes = {9, 9, 9, 9};
  std::vector<Individual*> batch;
  for (auto& ind : group) batch.push_back(&ind);

  evaluator.evaluate(batch);
  EXPECT_EQ(prob.evaluations.load(), 3u);
  EXPECT_EQ(group[2].eval.objectives, group[0].eval.objectives);
  EXPECT_DOUBLE_EQ(group[0].eval.objectives[0], 10.0);
  EXPECT_DOUBLE_EQ(group[5].eval.objectives[0], 36.0);
}

TEST(BatchEvaluator, ParallelAndSequentialResultsMatch) {
  CountingProblem prob;
  util::ThreadPool pool(4);
  std::vector<Individual> seq(64), par(64);
  for (int i = 0; i < 64; ++i) {
    seq[i].genes = {i, 2 * i, 3 * i, 4 * i};
    par[i].genes = seq[i].genes;
  }
  std::vector<Individual*> seq_batch, par_batch;
  for (auto& ind : seq) seq_batch.push_back(&ind);
  for (auto& ind : par) par_batch.push_back(&ind);

  BatchEvaluator(prob).evaluate(seq_batch);
  BatchEvaluator(prob, &pool).evaluate(par_batch);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(par[i].eval.objectives, seq[i].eval.objectives) << "individual " << i;
    EXPECT_EQ(par[i].eval.violation, seq[i].eval.violation);
  }
}

TEST(GenomeCache, LookupAndStoreUseTheHashTheyAreHanded) {
  // The batch path hands the memo the hash BatchEvaluator computed. The memo
  // keys on it as given: under a wrong hash the same genome misses, whether
  // the hash points at another shard or only at another bucket.
  GenomeCache<int> cache(64);
  const std::vector<int> genes{4, 8, 15, 16, 23, 42};
  const std::uint64_t hash = hash_genes(genes);
  cache.store(genes, hash, 7);
  int out = 0;
  ASSERT_TRUE(cache.lookup(genes, hash, &out));
  EXPECT_EQ(out, 7);
  ASSERT_TRUE(cache.lookup(genes, &out));  // the per-genome path hashes the same way
  for (const std::uint64_t wrong : {hash ^ 1, hash ^ (std::uint64_t{1} << 48)}) {
    EXPECT_FALSE(cache.lookup(genes, wrong, &out)) << std::hex << wrong;
  }
  EXPECT_NE(GenomeCache<int>::shard_of(hash ^ (std::uint64_t{1} << 48)),
            GenomeCache<int>::shard_of(hash));

  const std::vector<int> other{1, 2, 3};
  const std::uint64_t wrong = hash_genes(other) ^ 1;
  cache.store(other, wrong, 9);
  EXPECT_FALSE(cache.lookup(other, &out));
  ASSERT_TRUE(cache.lookup(other, wrong, &out));
  EXPECT_EQ(out, 9);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

/// Records, per evaluate_batch call, whether each genome came with its
/// hash_genes value, and how many genomes the chunk held.
class HashCheckingProblem : public CountingProblem {
 public:
  void evaluate_batch(std::span<Individual* const> batch,
                      std::span<const std::uint64_t> hashes) const override {
    std::lock_guard<std::mutex> lock(mu);
    chunk_sizes.push_back(batch.size());
    if (hashes.size() != batch.size()) mismatches += batch.size();
    for (std::size_t i = 0; i < batch.size() && i < hashes.size(); ++i) {
      if (hashes[i] != hash_genes(batch[i]->genes)) ++mismatches;
    }
    for (Individual* ind : batch) ind->eval = evaluate(ind->genes);
  }

  mutable std::mutex mu;
  mutable std::vector<std::size_t> chunk_sizes;
  mutable std::size_t mismatches = 0;
};

TEST(BatchEvaluator, HandsEachChunkTheHashesOfItsDistinctGenomes) {
  // The hashes are computed once on the calling thread and read by the
  // pool's chunk workers: each chunk of at most 8 distinct genomes carries
  // exactly their hash_genes values.
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    HashCheckingProblem prob;
    std::vector<Individual> group(75);
    for (std::size_t i = 0; i < group.size(); ++i) {
      const int g = static_cast<int>(i % 50);  // the last 25 repeat the first 25
      group[i].genes = {g, g + 1, 2 * g, 7};
    }
    std::vector<Individual*> batch;
    for (auto& ind : group) batch.push_back(&ind);
    BatchEvaluator(prob, p).evaluate(batch);

    EXPECT_EQ(prob.mismatches, 0u);
    EXPECT_EQ(prob.evaluations.load(), 50u);
    std::size_t total = 0;
    for (const std::size_t size : prob.chunk_sizes) {
      EXPECT_LE(size, 8u);
      total += size;
    }
    EXPECT_EQ(total, 50u);
    EXPECT_EQ(prob.chunk_sizes.size(), 7u);
    for (std::size_t i = 50; i < group.size(); ++i) {
      EXPECT_EQ(group[i].eval.objectives, group[i - 50].eval.objectives) << "individual " << i;
    }
  }
}

TEST(BatchEvaluator, DeduplicatesEveryRepeatInALargeBatch) {
  // 300 individuals, each of 150 genomes twice: the open-addressing dedup
  // probes past occupied slots and compares genes, so every repeat finds its
  // first occurrence and no two genomes merge.
  CountingProblem prob;
  std::vector<Individual> group(300);
  for (std::size_t i = 0; i < group.size(); ++i) {
    group[i].genes = {static_cast<int>(i % 150), 0, 0, 1};
  }
  std::vector<Individual*> batch;
  for (auto& ind : group) batch.push_back(&ind);
  BatchEvaluator(prob).evaluate(batch);
  EXPECT_EQ(prob.evaluations.load(), 150u);
  for (std::size_t i = 0; i < group.size(); ++i) {
    EXPECT_DOUBLE_EQ(group[i].eval.objectives[0], static_cast<double>(i % 150) + 1.0);
  }
}

}  // namespace
}  // namespace clr::moea
