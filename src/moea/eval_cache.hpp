#pragma once
// The genome memo table and the batch evaluator of the DSE engines.
//
// Crossover and mutation re-produce identical chromosomes (per-gene reset
// mutation at p = 0.03 leaves short chromosomes untouched), and the ReD stage
// re-seeds every secondary run from the same BaseD front, so
// dse::MappingProblem keeps a genome-keyed memo of schedule metrics that
// turns those repeats into hash lookups. On long chromosomes the repeats are
// rare (under 3% of schedule requests on the 40- and 90-task perfbench
// apps), so a memo operation must cost little next to a kernel run: one hash
// per evaluated genome, which BatchEvaluator computes for its dedup and hands
// on to the memo, and one stored copy of each key (DESIGN.md §5.6).
//
// The cache is sharded (one mutex + map per shard) so parallel evaluation
// batches do not serialize on a single lock, and bounded: each shard evicts
// its oldest entries (FIFO) once it reaches capacity / kShards entries.
// Lookups compare the full gene vector, never the hash alone, so a hash
// collision degrades to a miss instead of returning a wrong value.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "moea/individual.hpp"
#include "moea/problem.hpp"

namespace clr::util {
class ThreadPool;
}

namespace clr::moea {

/// In-memory 64-bit hash of a chromosome: util::WordHasher over the genes,
/// one gene word per step, then a fixed finalizer that mixes the top bits
/// GenomeCache picks its shard from. Plain fixed-width arithmetic, so memo
/// counts reproduce across machines. Never persisted (no file, checkpoint or
/// parameter hash uses it) and never used for equality, so it is free to
/// change (DESIGN.md §5.6).
std::uint64_t hash_genes(const std::vector<int>& genes);

/// Bounded, sharded, thread-safe memo table: chromosome -> payload.
/// dse::MappingProblem keeps the one instance, for schedule metrics.
///
/// Each lookup/store hashes its genome at most once: the hash picks the shard
/// and is kept in the key, so neither the map nor an eviction re-hashes. The
/// batch path hands in the hash_genes value BatchEvaluator already computed;
/// a wrong hash only misses, since keys compare hash and genes. Each key is
/// stored once, in the map node; the shard's FIFO order holds pointers to the
/// node-stable keys.
template <typename Value>
class GenomeCache {
 public:
  static constexpr std::size_t kShards = 16;

  explicit GenomeCache(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    shard_capacity_ = capacity_ / kShards;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
  }

  /// Shard that a genome with hash `hash` lives in (the hash's top bits).
  static std::size_t shard_of(std::uint64_t hash) { return (hash >> 48) % kShards; }

  /// Copy the cached payload for `genes` into *out. Returns false on miss.
  bool lookup(const std::vector<int>& genes, Value* out) const {
    return lookup(genes, hash_genes(genes), out);
  }

  /// lookup() of a genome whose hash_genes value is `hash`.
  bool lookup(const std::vector<int>& genes, std::uint64_t hash, Value* out) const {
    const Probe probe{hash, &genes};
    Shard& shard = shards_[shard_of(probe.hash)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(probe);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    *out = it->second;
    return true;
  }

  /// Insert (or overwrite) the payload for `genes`, evicting the shard's
  /// oldest entry when it is full.
  void store(const std::vector<int>& genes, const Value& value) {
    store(genes, hash_genes(genes), value);
  }

  /// store() of a genome whose hash_genes value is `hash`.
  void store(const std::vector<int>& genes, std::uint64_t hash, const Value& value) {
    const Probe probe{hash, &genes};
    Shard& shard = shards_[shard_of(probe.hash)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const auto it = shard.map.find(probe); it != shard.map.end()) {
      it->second = value;
      return;
    }
    const auto it = shard.map.emplace(Key{probe.hash, genes}, value).first;
    shard.order.push_back(&it->first);
    while (shard.map.size() > shard_capacity_) {
      shard.map.erase(shard.map.find(*shard.order.front()));
      shard.order.pop_front();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  std::size_t capacity() const { return shard_capacity_ * kShards; }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }

  /// Fraction of lookups answered from the cache (0 when never queried).
  double hit_rate() const {
    const double total = static_cast<double>(hits() + misses());
    return total > 0.0 ? static_cast<double>(hits()) / total : 0.0;
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.order.clear();
    }
  }

 private:
  /// A lookup key that borrows the caller's genome instead of copying it.
  struct Probe {
    std::uint64_t hash;
    const std::vector<int>* genes;
  };
  /// A stored key: the genome plus its hash, so neither rehashing nor
  /// eviction hashes the genes again.
  struct Key {
    std::uint64_t hash;
    std::vector<int> genes;
  };
  static Probe probe_of(const Probe& p) { return p; }
  static Probe probe_of(const Key& k) { return {k.hash, &k.genes}; }

  struct KeyHash {
    using is_transparent = void;
    template <typename K>
    std::size_t operator()(const K& k) const {
      return static_cast<std::size_t>(probe_of(k).hash);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const Probe pa = probe_of(a);
      const Probe pb = probe_of(b);
      return pa.genes == pb.genes || (pa.hash == pb.hash && *pa.genes == *pb.genes);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Value, KeyHash, KeyEq> map;
    std::deque<const Key*> order;  ///< insertion order for FIFO eviction
  };

  mutable std::array<Shard, kShards> shards_;
  std::size_t capacity_;
  std::size_t shard_capacity_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
};

/// Evaluates a batch of individuals against a Problem: hashes each genome
/// once, deduplicates identical genomes within the batch on those hashes,
/// hands the distinct ones with their hashes to Problem::evaluate_batch in
/// fixed 8-genome chunks (fanned out over the pool when there is one) and
/// copies the results to the duplicates. Results are independent of thread
/// count and batch order because evaluation is deterministic and the chunks
/// are fixed by index arithmetic.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const Problem& problem, util::ThreadPool* pool = nullptr)
      : problem_(&problem), pool_(pool) {}

  /// Fill ind->eval for every individual in the batch.
  void evaluate(const std::vector<Individual*>& batch) const;

 private:
  const Problem* problem_;
  util::ThreadPool* pool_;
};

}  // namespace clr::moea
