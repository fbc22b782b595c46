#pragma once
// The library's two hashes:
//   - fnv1a — the byte-exact FNV-1a64 every persisted value is built on;
//   - WordHasher — the in-memory word-wise hash of the genome memo
//     (moea::hash_genes) and the design database's dedup index
//     (dse::hash_configuration).

#include <cstddef>
#include <cstdint>

namespace clr::util {

/// FNV-1a64 offset basis: the state before any byte.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// Fold `n` raw bytes into the running FNV-1a64 state `h`.
///
/// Persisted: the `.clrdb` payload checksum and every checkpoint identity
/// (exp::explore_param_hash, exp::Runner::grid_hash, fleet::fleet_param_hash)
/// are FNV-1a64 values stored in files, so this function's values never
/// change — a different hash would reject every file written before it.
inline void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

/// FNV-1a64 of `n` raw bytes from the offset basis.
inline std::uint64_t fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = kFnv1aBasis;
  fnv1a(h, data, n);
  return h;
}

/// Fold the object representation of `v` into `h` (parameter hashes name
/// the width explicitly: fnv1a_value<std::uint64_t>(h, count)).
template <typename T>
inline void fnv1a_value(std::uint64_t& h, T v) {
  fnv1a(h, &v, sizeof v);
}

/// In-memory only: the value enters no file, checkpoint, parameter hash or
/// digest, and every user compares full keys for equality, so it only places
/// entries in buckets and shards and is free to change.
///
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
