#pragma once
// In-memory word-wise hash shared by the genome memo (moea::hash_genes) and
// the design database's dedup index (dse::hash_configuration).
//
// The value is never persisted: it enters no file, checkpoint, parameter
// hash or digest, and every user compares full keys for equality, so it only
// places entries in buckets and shards and is free to change. Persisted
// checksums keep the byte-exact FNV-1a of io/snapshot instead.

#include <cstdint>

namespace clr::util {

/// Consumes one 32-bit word per step with plain fixed-width arithmetic (no
/// std::hash), so bucket placement, and with it every memo count, reproduces
/// across machines. finish() applies a fixed avalanche finalizer, so the top
/// bits (GenomeCache's shard index) depend on every word.
class WordHasher {
 public:
  /// `words` is the number of add() calls that follow; it seeds the state so
  /// sequences of different lengths hash apart.
  explicit constexpr WordHasher(std::uint64_t words) : h_(kBasis ^ (words * kMul)) {}

  constexpr void add(std::uint32_t word) { h_ = (h_ ^ word) * kMul; }

  constexpr std::uint64_t finish() const {
    std::uint64_t h = h_;  // MurmurHash3 fmix64
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

 private:
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;  // odd: each step is a bijection
  std::uint64_t h_;
};

}  // namespace clr::util
