#pragma once
// Deterministic random-number utilities.
//
// Every stochastic component in the library takes an explicit Rng& so that
// experiments are reproducible bit-for-bit from a single seed (DESIGN.md §5.5).

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
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

/// MT19937-64 with std::mt19937_64's output, operator== and stream text,
/// written out so no stream depends on the standard library's engine. The
/// twist selects its xor mask without a branch, and each refill tempers the
/// 312 new state words into an output buffer in the same straight-line
/// (vectorized) pass, so a draw is one load. peek() and skip() read that
/// buffer directly (DESIGN.md §5.5).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < state_size; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    if (pos_ >= state_size) refill();
    return out_[pos_++];
  }

  /// The words the next calls of operator() return, in order: the rest of
  /// the buffer, refilled first when it is spent, so never empty. A refill
  /// here moves text() to the next block at position 0 before any of its
  /// words is consumed, which continues the same stream from another text;
  /// callers skip at least one word before the state is saved or compared.
  std::span<const result_type> peek() {
    if (pos_ >= state_size) refill();
    return {out_.data() + pos_, state_size - pos_};
  }

  /// Consume the next `k` words, as k calls of operator() would. Requires
  /// k <= peek().size().
  void skip(std::size_t k) { pos_ += k; }

  /// The state words and the position; the output buffer is derived from
  /// them.
  friend bool operator==(const Mt19937_64& a, const Mt19937_64& b) {
    return a.pos_ == b.pos_ && a.x_ == b.x_;
  }

  /// std::mt19937_64's operator<< text: the 312 state words, then the
  /// position, in decimal and one space apart. Locale-free by construction.
  std::string text() const {
    std::string out;
    char word[24];
    for (const result_type w : x_) {
      out.append(word, std::to_chars(word, word + sizeof word, w).ptr);
      out += ' ';
    }
    out.append(word, std::to_chars(word, word + sizeof word, pos_).ptr);
    return out;
  }

  /// Replace the state with text() as parsed back (fields separated by any
  /// whitespace, as operator>> reads them). Throws std::invalid_argument,
  /// leaving the state as it was, on a missing, non-decimal or out-of-range
  /// field, a position above 312, or trailing text.
  void set_text(std::string_view text) {
    const auto is_space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
    const char* p = text.data();
    const char* const end = p + text.size();
    std::array<std::uint64_t, state_size + 1> fields;  // the words, then the position
    for (std::uint64_t& field : fields) {
      while (p != end && is_space(*p)) ++p;
      const auto [next, ec] = std::from_chars(p, end, field);
      if (ec != std::errc{} || (next != end && !is_space(*next))) {
        throw std::invalid_argument("Rng::restore_state: malformed engine state");
      }
      p = next;
    }
    while (p != end && is_space(*p)) ++p;
    if (fields.back() > state_size || p != end) {
      throw std::invalid_argument("Rng::restore_state: malformed engine state");
    }
    std::copy_n(fields.begin(), state_size, x_.begin());
    pos_ = fields.back();
    for (std::size_t i = 0; i < state_size; ++i) out_[i] = temper(x_[i]);
  }

 private:
  static constexpr std::size_t kMiddle = 156;  // the twist reads the word this far ahead

  static result_type twist(result_type upper, result_type lower, result_type far) {
    const result_type y = (upper & 0xffffffff80000000ULL) | (lower & 0x7fffffffULL);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  void refill() {
    std::size_t i = 0;
    for (; i < state_size - kMiddle; ++i) {
      x_[i] = twist(x_[i], x_[i + 1], x_[i + kMiddle]);
      out_[i] = temper(x_[i]);
    }
    for (; i < state_size - 1; ++i) {
      x_[i] = twist(x_[i], x_[i + 1], x_[i + kMiddle - state_size]);
      out_[i] = temper(x_[i]);
    }
    x_[i] = twist(x_[i], x_[0], x_[kMiddle - 1]);
    out_[i] = temper(x_[i]);
    pos_ = 0;
  }

  std::array<result_type, state_size> x_;
  std::array<result_type, state_size> out_{};  ///< tempered x_; words before pos_ are spent
  std::size_t pos_ = state_size;
};

/// generate_canonical<double, 53> of one engine word: the word over 2^64,
/// clamped below 1. The word converts as two exact halves and one rounding
/// add, which equals double(word) without the sign-test branch of an
/// unsigned conversion. Never decreases as the word grows.
constexpr double canonical(std::uint64_t word) {
  const double w = static_cast<double>(static_cast<std::int64_t>(word >> 32)) * 0x1p32 +
                   static_cast<double>(static_cast<std::int64_t>(word & 0xffffffffULL));
  return std::min(w * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// Rng::chance(p) decided by one integer comparison (DESIGN.md §5.5).
/// canonical() never decreases as the word grows, so for p in (0, 1) the
/// words whose canonical value is below p are exactly those below
/// threshold(), the least word whose value is >= p: chance(p) draws one word
/// and succeeds iff it lands below. Every other p draws what chance(p)
/// draws, with its result: p <= 0 and p >= 1 draw nothing (always() is the
/// result), and NaN draws one word and never succeeds (threshold 0). No
/// double lies in (1 - 2^-53, 1), and canonical() reaches 1 - 2^-53, so the
/// threshold always fits in a word. Construct one per probability, not per
/// toss: the constructor searches all 64 bits.
class Coin {
 public:
  constexpr explicit Coin(double p)
      : draws_(!(p <= 0.0) && !(p >= 1.0)),
        always_(p >= 1.0),
        threshold_(draws_ ? threshold_of(p) : 0) {}

  /// Whether a toss reads an engine word: p in (0, 1), or NaN.
  constexpr bool draws() const { return draws_; }
  /// The result of a toss that draws nothing: p >= 1.
  constexpr bool always() const { return always_; }
  /// The result of a toss that reads `word`.
  constexpr bool lands(std::uint64_t word) const { return word < threshold_; }
  constexpr std::uint64_t threshold() const { return threshold_; }

 private:
  /// The least word whose canonical value is >= p; 0 for NaN.
  static constexpr std::uint64_t threshold_of(double p) {
    if (!(p > 0.0)) return 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = ~std::uint64_t{0};  // canonical(hi) = 1 - 2^-53 >= every p < 1
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (canonical(mid) >= p) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  bool draws_;
  bool always_;
  std::uint64_t threshold_;
};

/// Seeded pseudo-random generator with convenience samplers.
///
/// Every sampler reproduces, bit for bit, the algorithm libstdc++ 12 uses for
/// the matching std:: distribution over std::mt19937_64 (DESIGN.md §5.5), so
/// recorded streams do not depend on the standard library in use. Samplers
/// keep no state between calls; the engine is the whole stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  Mt19937_64& engine() { return engine_; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    const std::uint64_t base = static_cast<std::uint64_t>(lo);
    return static_cast<int>(base + below(static_cast<std::uint64_t>(hi) - base + 1));
  }

  /// Uniform std::size_t in [0, n-1]. Requires n > 0.
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n must be > 0");
    return below(n);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) { return canonical() * (hi - lo) + lo; }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  /// Normal sample with given mean and standard deviation: Marsaglia's polar
  /// method. Each call makes a fresh pair and returns its second value.
  double normal(double mean, double stddev) {
    double x = 0.0, y = 0.0, r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
  }

  /// Exponential sample with given mean (mean = 1/rate). Requires mean > 0.
  double exponential_mean(double mean) {
    if (mean <= 0.0) throw std::invalid_argument("exponential_mean: mean must be > 0");
    const double rate = 1.0 / mean;
    return -std::log(1.0 - canonical()) / rate;
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

  /// Serialize the full engine state (Mt19937_64::text). Restoring it
  /// continues every sampler's stream bit-exactly.
  std::string save_state() const { return engine_.text(); }

  /// Restore a state produced by save_state() or by std::mt19937_64's
  /// operator<<. Throws std::invalid_argument (leaving the stream as it was)
  /// if the text is not such a state.
  void restore_state(const std::string& text) { engine_.set_text(text); }

 private:
  /// Uniform in [0, range), range > 0: Lemire's nearly-divisionless method
  /// on one engine word (more only on rejection).
  std::uint64_t below(std::uint64_t range) {
    unsigned __int128 product = static_cast<unsigned __int128>(engine_()) * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(engine_()) * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// util::canonical of the next engine word.
  double canonical() { return util::canonical(engine_()); }

  Mt19937_64 engine_;
};

}  // namespace clr::util
