#pragma once
// Deterministic random-number utilities.
//
// Every stochastic component in the library takes an explicit Rng& so that
// experiments are reproducible bit-for-bit from a single seed (DESIGN.md §5.5).

#include <cstdint>
#include <locale>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace clr::util {

/// SplitMix64 — used to expand a single user seed into well-distributed
/// per-component seeds (e.g. one Rng per application size in a sweep).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value of the sequence.
  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Current stream state. SplitMix64{state()} continues the sequence
  /// bit-exactly — used by checkpoint/resume (DESIGN.md §5.12).
  constexpr std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

/// Seed of substream `index` under `base`: one SplitMix64 step from
/// base + index·golden-ratio, so consecutive indices get decorrelated streams
/// and the mapping never depends on execution order or thread placement.
/// Every replication of exp::Runner and every fleet device draws from it, so
/// its values are part of every recorded result and never change.
constexpr std::uint64_t substream_seed(std::uint64_t base, std::uint64_t index) {
  return SplitMix64(base + 0x9e3779b97f4a7c15ULL * index).next();
}

/// Seeded pseudo-random generator with convenience samplers.
///
/// Wraps std::mt19937_64; all distribution helpers are members so call sites
/// never instantiate std:: distributions with inconsistent parameter orders.
class Rng {
 public:
  using engine_type = std::mt19937_64;

  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child generator (stable given call order).
  Rng fork() { return Rng(engine_()); }

  engine_type& engine() { return engine_; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Uniform std::size_t in [0, n-1]. Requires n > 0.
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n must be > 0");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Normal sample with given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential sample with given mean (mean = 1/rate). Requires mean > 0.
  double exponential_mean(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("exponential_mean: mean must be > 0");
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Uniformly pick an element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[index(items.size())];
  }

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Serialize the full engine state. Restoring it continues the stream
  /// bit-exactly: the distribution helpers construct fresh std::
  /// distributions per call, so the engine is the only hidden state. Uses
  /// the classic locale — mt19937_64's stream operators are locale-sensitive
  /// and checkpoints must be portable across locales.
  std::string save_state() const {
    std::ostringstream out;
    out.imbue(std::locale::classic());
    out << engine_;
    return out.str();
  }

  /// Restore a state produced by save_state(). Throws std::invalid_argument
  /// if the text does not parse as an mt19937_64 state.
  void restore_state(const std::string& text) {
    std::istringstream in(text);
    in.imbue(std::locale::classic());
    engine_type restored;
    in >> restored;
    if (in.fail()) throw std::invalid_argument("Rng::restore_state: malformed engine state");
    engine_ = restored;
  }

 private:
  engine_type engine_;
};

}  // namespace clr::util
