// Golden pins of util::Rng's streams. Every recorded result in the repo (CLI
// goldens, checkpoint fixtures, perfbench digests) is a function of these
// draws, so each helper's output is pinned here as an FNV-1a digest of 10^4
// draws at two seeds, plus the engine word that follows them (which pins how
// many engine outputs the helper consumed). The engine itself is checked
// against std::mt19937_64 and, under libstdc++, each helper against the
// std:: distribution it reproduces (DESIGN.md §5.5).

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <locale>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace clr::util {
namespace {

constexpr std::uint64_t kSeedA = 1;
constexpr std::uint64_t kSeedB = 0xdeadbeefcafef00dULL;
constexpr int kDraws = 10000;

using Draw = std::function<void(Rng&, std::uint64_t&)>;

std::uint64_t digest(std::uint64_t seed, const Draw& draw, int draws = kDraws) {
  Rng rng(seed);
  std::uint64_t h = kFnv1aBasis;
  for (int i = 0; i < draws; ++i) draw(rng, h);
  fnv1a_value<std::uint64_t>(h, rng.engine()());
  return h;
}

struct Golden {
  const char* name;
  Draw draw;
  std::uint64_t at_a;  // digest at kSeedA
  std::uint64_t at_b;  // digest at kSeedB
};

Draw int_draw(int lo, int hi) {
  return [lo, hi](Rng& rng, std::uint64_t& h) { fnv1a_value<int>(h, rng.uniform_int(lo, hi)); };
}
Draw index_draw(std::uint64_t n) {
  return [n](Rng& rng, std::uint64_t& h) { fnv1a_value<std::uint64_t>(h, rng.index(n)); };
}
Draw chance_draw(double p) {
  return [p](Rng& rng, std::uint64_t& h) { fnv1a_value<std::uint8_t>(h, rng.chance(p) ? 1 : 0); };
}
Draw uniform_draw(double lo, double hi) {
  return [lo, hi](Rng& rng, std::uint64_t& h) { fnv1a_value<double>(h, rng.uniform(lo, hi)); };
}
Draw normal_draw(double mean, double sd) {
  return [mean, sd](Rng& rng, std::uint64_t& h) { fnv1a_value<double>(h, rng.normal(mean, sd)); };
}
Draw exponential_draw(double mean) {
  return [mean](Rng& rng, std::uint64_t& h) { fnv1a_value<double>(h, rng.exponential_mean(mean)); };
}

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> table = {
      {"uniform_int(4,4)", int_draw(4, 4), 0x713b2be61afc672fULL, 0x9d5e3362cccf2d51ULL},
      {"uniform_int(-5,5)", int_draw(-5, 5), 0x9288f95214303b7fULL, 0xd2ac701fd0f2fd51ULL},
      {"uniform_int(INT_MIN,INT_MAX)", int_draw(INT_MIN, INT_MAX), 0x92ad52733c93cd7fULL,
       0x7a6e53cf5eea3943ULL},
      {"index(1)", index_draw(1), 0x4b49b9112d3ace2fULL, 0x776cc08ddf0d9451ULL},
      {"index(2)", index_draw(2), 0x84e70145efa3d7c2ULL, 0x881385d1ace8e4e4ULL},
      {"index(2^32)", index_draw(1ULL << 32), 0xd9a6a568a74e415fULL, 0xb0d815a72b59c173ULL},
      {"index(2^32+1)", index_draw((1ULL << 32) + 1), 0xed2d3b38ca8ea79eULL, 0x8c443c3679a39844ULL},
      {"index(2^63)", index_draw(1ULL << 63), 0x5ed4a8de9df77121ULL, 0x2757bb5b906c4805ULL},
      {"index(2^63+1)", index_draw((1ULL << 63) + 1), 0x81c4f939926a8ea3ULL, 0x2063d93263467f01ULL},
      {"chance(0)", chance_draw(0.0), 0xa671c131d89b2e6ULL, 0x4f39bfd61419bdbeULL},
      {"chance(5e-324)", chance_draw(5e-324), 0x363f151ff017d26fULL, 0x5e2a2dbaf110f511ULL},
      {"chance(1e-300)", chance_draw(1e-300), 0x363f151ff017d26fULL, 0x5e2a2dbaf110f511ULL},
      {"chance(0.03)", chance_draw(0.03), 0xa8ab7f242388f77aULL, 0xf0bb62967f49d6bcULL},
      {"chance(0.5)", chance_draw(0.5), 0x995932bede4aa30cULL, 0xcad0c29cf91aab20ULL},
      {"chance(0.7)", chance_draw(0.7), 0x2405752d746c3daULL, 0x61774624851c9f3fULL},
      {"chance(nextafter(1,0))", chance_draw(std::nextafter(1.0, 0.0)), 0x267aa3042850205fULL,
       0xa449fa95fb6fd241ULL},
      {"chance(1)", chance_draw(1.0), 0x6d9013d273406796ULL, 0xeeda19b8798fe8eULL},
      {"uniform(0,1)", uniform_draw(0.0, 1.0), 0xfa88a79a96eca98ULL, 0x5b246158ab9143f7ULL},
      {"uniform(-2,3)", uniform_draw(-2.0, 3.0), 0xe3ab7fc1f008effbULL, 0xd3a9ad731f9cb6bdULL},
      {"normal(0,1)", normal_draw(0.0, 1.0), 0xd368e3157bc905d9ULL, 0xd35194c48bceff40ULL},
      {"normal(5,2)", normal_draw(5.0, 2.0), 0x265faa6a3632f2d5ULL, 0x3e0df42007610708ULL},
      {"normal(3,0)", normal_draw(3.0, 0.0), 0xcf9ae2ef54e60819ULL, 0xb7b509a44382ace2ULL},
      {"exponential_mean(1e-300)", exponential_draw(1e-300), 0x8c3528f233880b3ULL,
       0x9bbf53622b752386ULL},
      {"exponential_mean(100)", exponential_draw(100.0), 0x32d95bdcaebfb4deULL,
       0x41ed77f9d2fdb85fULL},
      {"exponential_mean(1e300)", exponential_draw(1e300), 0x798290d640419e18ULL,
       0xfbd402355f598922ULL},
  };
  return table;
}

TEST(RngGolden, EveryHelperReproducesItsRecordedDigest) {
  for (const Golden& g : goldens()) {
    const std::uint64_t a = digest(kSeedA, g.draw);
    const std::uint64_t b = digest(kSeedB, g.draw);
    EXPECT_EQ(a, g.at_a) << g.name << " seed A: got 0x" << std::hex << a;
    EXPECT_EQ(b, g.at_b) << g.name << " seed B: got 0x" << std::hex << b;
  }
}

// 100 Fisher–Yates passes over 0..99: 9,900 index draws of every width.
std::uint64_t shuffle_digest(std::uint64_t seed) {
  std::vector<std::uint32_t> v(100);
  std::iota(v.begin(), v.end(), 0u);
  Rng rng(seed);
  std::uint64_t h = kFnv1aBasis;
  for (int pass = 0; pass < 100; ++pass) {
    rng.shuffle(v);
    fnv1a(h, v.data(), v.size() * sizeof v[0]);
  }
  fnv1a_value<std::uint64_t>(h, rng.engine()());
  return h;
}

TEST(RngGolden, ShuffleReproducesItsRecordedDigest) {
  EXPECT_EQ(shuffle_digest(kSeedA), 0x51651d701ffc861ULL);
  EXPECT_EQ(shuffle_digest(kSeedB), 0x7664b0fed1596d78ULL);
}

// Helpers interleaved the way the library calls them: a draw of one kind
// never leaves hidden state that changes the next draw of another kind.
std::uint64_t interleaved_digest(std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t h = kFnv1aBasis;
  for (int i = 0; i < 20000; ++i) {
    switch (i % 7) {
      case 0: fnv1a_value<int>(h, rng.uniform_int(-3, 1000)); break;
      case 1: fnv1a_value<std::uint64_t>(h, rng.index(13 + static_cast<std::uint64_t>(i))); break;
      case 2: fnv1a_value<std::uint8_t>(h, rng.chance(0.03) ? 1 : 0); break;
      case 3: fnv1a_value<double>(h, rng.normal(0.0, 1.0)); break;
      case 4: fnv1a_value<double>(h, rng.exponential_mean(100.0)); break;
      case 5: fnv1a_value<double>(h, rng.uniform(-1.0, 1.0)); break;
      default: fnv1a_value<std::uint8_t>(h, rng.chance(0.7) ? 1 : 0); break;
    }
  }
  fnv1a_value<std::uint64_t>(h, rng.engine()());
  return h;
}

TEST(RngGolden, InterleavedHelpersReproduceTheirRecordedDigest) {
  EXPECT_EQ(interleaved_digest(kSeedA), 0x559042fc85d6e82aULL);
  EXPECT_EQ(interleaved_digest(kSeedB), 0xd5879ffe92a620f0ULL);
}

// --- The engine against std::mt19937_64, whose output the standard fixes ---

TEST(RngEngine, MatchesStdMt19937_64) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
                                   ~std::uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 3 * kDraws; ++i) {
      ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed << " output " << i;
    }
  }
}

TEST(RngEngine, TenThousandthOutputOfTheDefaultSeedIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a default-constructed
  // mt19937_64 (seed 5489) produces 9981545732273789042.
  Rng rng(5489);
  for (int i = 1; i < 10000; ++i) rng.engine()();
  EXPECT_EQ(rng.engine()(), 9981545732273789042ULL);
}

std::string std_text(const std::mt19937_64& engine) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << engine;
  return out.str();
}

// The text of a std::mt19937_64 at position 0, which only its stream
// operator can produce: the state after 312 outputs with the position field
// rewritten to 0.
std::string at_position_zero(std::uint64_t seed) {
  std::mt19937_64 ref(seed);
  for (int i = 0; i < 312; ++i) ref();
  std::string text = std_text(ref);
  EXPECT_EQ(text.substr(text.size() - 4), " 312");
  text.replace(text.size() - 3, 3, "0");
  return text;
}

TEST(RngEngine, SaveStateIsTheStdStreamTextAtEveryPosition) {
  for (const int draws : {1, 311, 312, 313, 1000}) {
    Rng rng(77);
    std::mt19937_64 ref(77);
    for (int i = 0; i < draws; ++i) {
      rng.engine()();
      ref();
    }
    EXPECT_EQ(rng.save_state(), std_text(ref)) << draws << " draws";
  }
  Rng fresh(77);
  EXPECT_EQ(fresh.save_state(), std_text(std::mt19937_64(77)));

  const std::string zero = at_position_zero(77);
  Rng rng(1);
  rng.restore_state(zero);
  EXPECT_EQ(rng.save_state(), zero);
}

TEST(RngEngine, StdTextRestoresAndContinuesIdentically) {
  std::vector<std::string> texts;
  for (const int draws : {0, 1, 311, 312, 313}) {
    std::mt19937_64 ref(2024);
    for (int i = 0; i < draws; ++i) ref();
    texts.push_back(std_text(ref));
  }
  texts.push_back(at_position_zero(2024));
  for (const std::string& text : texts) {
    std::istringstream in(text);
    in.imbue(std::locale::classic());
    std::mt19937_64 ref;
    in >> ref;
    ASSERT_FALSE(in.fail());
    Rng rng(9);
    rng.restore_state(text);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.engine()(), ref()) << "output " << i;
    EXPECT_EQ(rng.save_state(), std_text(ref));
  }
}

// MT19937-64's tempering inverted, so a crafted state makes the engine emit
// chosen words: each xor-shift step is undone by repeating it until the
// shifted bits cover the word.
std::uint64_t untemper(std::uint64_t z) {
  z ^= z >> 43;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  std::uint64_t t = z;
  for (int i = 0; i < 4; ++i) t = z ^ ((t << 17) & 0x71d67fffeda60000ULL);
  z = t;
  for (int i = 0; i < 3; ++i) t = z ^ ((t >> 29) & 0x5555555555555555ULL);
  return t;
}

// The state text at position 0 whose next outputs are `words` (at most 312).
std::string emitting(const std::vector<std::uint64_t>& words) {
  std::string text;
  for (std::size_t i = 0; i < 312; ++i) {
    text += std::to_string(i < words.size() ? untemper(words[i]) : i) + ' ';
  }
  return text + '0';
}

TEST(RngEngine, EdgeWordsBecomeTheCorrectlyRoundedCanonicalDouble) {
  // Words where an inexact uint64 -> double conversion or a missing clamp
  // shows: exact powers, 2^53 ± 1, halfway cases that round to even down and
  // up, the largest word that stays below 1, and words that round to 2^64.
  const std::vector<std::uint64_t> words = {
      0, 1, (1ULL << 53) - 1, 1ULL << 53, (1ULL << 53) + 1, (1ULL << 53) + 3,
      (1ULL << 60) + (1ULL << 7), (1ULL << 60) + 3 * (1ULL << 7), (1ULL << 63) - 1, 1ULL << 63,
      (1ULL << 63) + 1, (1ULL << 63) + (1ULL << 10), (1ULL << 63) + 3 * (1ULL << 10),
      ~0ULL - (1ULL << 11) + 1, ~0ULL - (1ULL << 10), ~0ULL - (1ULL << 10) + 1, ~0ULL};
  Rng engine_words(1);
  engine_words.restore_state(emitting(words));
  Rng canonical(1);
  canonical.restore_state(emitting(words));
  Rng trial(1);
  trial.restore_state(emitting(words));
  for (const std::uint64_t w : words) {
    ASSERT_EQ(engine_words.engine()(), w);
    const double want = std::min(static_cast<double>(w) / 0x1p64, std::nextafter(1.0, 0.0));
    const double got = canonical.uniform();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "word " << w;
    // chance(p) succeeds iff the canonical double is strictly below p.
    EXPECT_EQ(trial.chance(std::max(want, 5e-324)), want == 0.0) << "word " << w;
  }
#ifdef __GLIBCXX__
  std::istringstream in(emitting(words));
  in.imbue(std::locale::classic());
  std::mt19937_64 ref;
  in >> ref;
  Rng ours(1);
  ours.restore_state(emitting(words));
  for (const std::uint64_t w : words) {
    const double want = std::generate_canonical<double, 53>(ref);
    const double got = ours.uniform();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "word " << w;
  }
#endif
}

// --- The output buffer: peek() and skip() ---

// `text` (a state text) with its position field replaced by `pos`.
std::string with_position(const std::string& text, std::size_t pos) {
  return text.substr(0, text.rfind(' ') + 1) + std::to_string(pos);
}

TEST(RngEngine, PeekAndSkipReturnTheWordsTheCallsWouldReturn) {
  // Runs of 1-97 words through the buffer, across 160 refills.
  Rng buffered(42);
  Rng calls(42);
  for (std::size_t run = 0; run < 1000; ++run) {
    const std::span<const std::uint64_t> words = buffered.engine().peek();
    ASSERT_FALSE(words.empty());
    const std::size_t k = std::min<std::size_t>(words.size(), 1 + run % 97);
    for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(words[i], calls.engine()()) << "run " << run;
    buffered.engine().skip(k);
    ASSERT_TRUE(buffered.engine() == calls.engine()) << "run " << run;
  }
  EXPECT_EQ(buffered.save_state(), calls.save_state());

  // A restored state serves the rest of its block, or a whole new block at
  // position 312, and continues identically after it.
  for (const std::size_t pos : {0u, 1u, 155u, 311u, 312u}) {
    const std::string text = with_position(Rng(2024).save_state(), pos);
    Rng a(1);
    Rng b(1);
    a.restore_state(text);
    b.restore_state(text);
    for (int block = 0; block < 3; ++block) {
      const std::span<const std::uint64_t> words = a.engine().peek();
      EXPECT_EQ(words.size(), block == 0 && pos < 312 ? 312 - pos : 312u) << "position " << pos;
      for (const std::uint64_t w : words) ASSERT_EQ(w, b.engine()()) << "position " << pos;
      a.engine().skip(words.size());
      ASSERT_TRUE(a.engine() == b.engine()) << "position " << pos;
      EXPECT_EQ(a.save_state(), b.save_state()) << "position " << pos;
    }
  }
}

TEST(RngEngine, EnginesWithEqualStateTextCompareEqual) {
  for (const int draws : {0, 1, 311, 312, 313, 1000}) {
    Rng drawn(5);
    for (int i = 0; i < draws; ++i) drawn.engine()();
    Rng restored(6);
    restored.restore_state(drawn.save_state());
    EXPECT_TRUE(drawn.engine() == restored.engine()) << draws << " draws";
    for (int i = 0; i < 700; ++i) ASSERT_EQ(drawn.engine()(), restored.engine()());
    EXPECT_TRUE(drawn.engine() == restored.engine()) << draws << " draws";
  }
  Rng one(5);
  one.engine()();
  EXPECT_FALSE(one.engine() == Rng(5).engine());
}

// --- Coin: chance(p) as an integer threshold ---

// Round-to-even carries the words [2^63 - 512, 2^63) up to 0.5.
static_assert(Coin(0.5).threshold() == (1ULL << 63) - 512);
static_assert(Coin(0.5).draws() && !Coin(0.0).draws() && !Coin(1.0).draws());

// One toss of `coin` on `rng`'s engine, as a caller reads it.
bool toss(Rng& rng, const Coin& coin) {
  return coin.draws() ? coin.lands(rng.engine()()) : coin.always();
}

std::vector<double> coin_probabilities() {
  return {-0.1, 0.0, std::numeric_limits<double>::quiet_NaN(), 1e-300, 0.03, 0.1, 0.5, 0.7,
          1.0 - 0x1p-54, 1.0, 1.5};
}

TEST(RngCoin, ThresholdIsTheLeastWordWhoseCanonicalValueReachesP) {
  for (const double p : coin_probabilities()) {
    const Coin coin(p);
    EXPECT_EQ(coin.draws(), !(p <= 0.0) && !(p >= 1.0)) << p;
    EXPECT_EQ(coin.always(), p >= 1.0) << p;
    if (!(p > 0.0 && p < 1.0)) continue;
    const std::uint64_t t = coin.threshold();
    ASSERT_GT(t, 0u) << p;
    EXPECT_GE(canonical(t), p) << p;
    EXPECT_LT(canonical(t - 1), p) << p;
  }
  EXPECT_EQ(Coin(std::numeric_limits<double>::quiet_NaN()).threshold(), 0u);
  // The largest probability below 1 still fits: the top words clamp to it.
  EXPECT_EQ(Coin(std::nextafter(1.0, 0.0)).threshold(), ~0ULL - (1ULL << 11) - (1ULL << 10) + 2);
}

TEST(RngCoin, DrawsWhatChanceDrawsAroundItsThreshold) {
  for (const double p : coin_probabilities()) {
    const Coin coin(p);
    const std::uint64_t t = coin.threshold();
    const std::vector<std::uint64_t> words = {t - 1, t, t + 1};
    Rng ours(1);
    Rng theirs(1);
    ours.restore_state(emitting(words));
    theirs.restore_state(emitting(words));
    for (std::size_t i = 0; i < words.size(); ++i) {
      const bool got = toss(ours, coin);
      EXPECT_EQ(got, theirs.chance(p)) << "p " << p << " word " << i;
      if (coin.draws() && t > 0) {
        EXPECT_EQ(got, i == 0) << "p " << p << " word " << i;
      }
      EXPECT_TRUE(ours.engine() == theirs.engine()) << "p " << p << " word " << i;
    }
  }
}

TEST(RngCoin, DrawsWhatChanceDrawsOverAMillionWordStream) {
  for (const double p : coin_probabilities()) {
    const Coin coin(p);
    Rng ours(kSeedB);
    Rng theirs(kSeedB);
    std::size_t successes = 0;
    for (int i = 0; i < 1000000; ++i) {
      const bool got = toss(ours, coin);
      ASSERT_EQ(got, theirs.chance(p)) << "p " << p << " toss " << i;
      successes += got;
    }
    EXPECT_TRUE(ours.engine() == theirs.engine()) << "p " << p;
    EXPECT_EQ(ours.save_state(), theirs.save_state()) << "p " << p;
    if (p == 0.5) {
      EXPECT_NEAR(static_cast<double>(successes), 5e5, 5e3);
    }
  }
}

// --- Each helper against the libstdc++ distribution it reproduces ---

#ifdef __GLIBCXX__
template <typename Ours, typename Theirs>
void expect_same_stream(const char* name, Ours ours, Theirs theirs) {
  for (const std::uint64_t seed : {kSeedA, kSeedB}) {
    Rng a(seed);
    Rng b(seed);
    for (int i = 0; i < kDraws; ++i) {
      const auto x = ours(a);
      const auto y = theirs(b.engine());
      ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0) << name << " seed " << seed << " draw " << i;
    }
    EXPECT_TRUE(a.engine() == b.engine()) << name << ": different engine words consumed";
  }
}

TEST(RngOracle, HelpersMatchTheLibstdcxxDistributions) {
  for (const auto& [lo, hi] : {std::pair{4, 4}, std::pair{-5, 5}, std::pair{INT_MIN, INT_MAX}}) {
    expect_same_stream(
        "uniform_int", [lo, hi](Rng& r) { return r.uniform_int(lo, hi); },
        [lo, hi](auto& e) { return std::uniform_int_distribution<int>(lo, hi)(e); });
  }
  const std::uint64_t widths[] = {1, 2, 13, 1ULL << 32, (1ULL << 32) + 1,
                                  1ULL << 63, (1ULL << 63) + 1, ~0ULL};
  for (const std::uint64_t n : widths) {
    expect_same_stream(
        "index", [n](Rng& r) { return r.index(n); },
        [n](auto& e) { return std::uniform_int_distribution<std::size_t>(0, n - 1)(e); });
  }
  for (const double p : {5e-324, 1e-300, 0.03, 0.5, 0.7, std::nextafter(1.0, 0.0)}) {
    expect_same_stream(
        "chance", [p](Rng& r) { return r.chance(p); },
        [p](auto& e) { return std::bernoulli_distribution(p)(e); });
  }
  expect_same_stream(
      "uniform", [](Rng& r) { return r.uniform(-2.0, 3.0); },
      [](auto& e) { return std::uniform_real_distribution<double>(-2.0, 3.0)(e); });
  for (const auto& [mean, sd] : {std::pair{0.0, 1.0}, std::pair{5.0, 2.0}, std::pair{-1e6, 1e-9}}) {
    expect_same_stream(
        "normal", [mean, sd](Rng& r) { return r.normal(mean, sd); },
        [mean, sd](auto& e) { return std::normal_distribution<double>(mean, sd)(e); });
  }
  for (const double mean : {1e-300, 0.5, 100.0, 1e300}) {
    expect_same_stream(
        "exponential_mean", [mean](Rng& r) { return r.exponential_mean(mean); },
        [mean](auto& e) { return std::exponential_distribution<double>(1.0 / mean)(e); });
  }
}
#endif

}  // namespace
}  // namespace clr::util
