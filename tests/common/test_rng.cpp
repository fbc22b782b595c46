#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

namespace clr::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(SplitMix64, ZeroSeedProducesNonZeroStream) {
  SplitMix64 a(0);
  bool any_nonzero = false;
  for (int i = 0; i < 10; ++i) any_nonzero |= (a.next() != 0);
  EXPECT_TRUE(any_nonzero);
}

TEST(SubstreamSeed, ReproducesTheRecordedReplicationAndDeviceSeeds) {
  // Every replication and fleet device seeds from substream_seed, so stored
  // results, checkpoints and the perfbench digests depend on these values.
  EXPECT_EQ(substream_seed(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(substream_seed(42, 1), 0x28efe333b266f103ULL);
  EXPECT_EQ(substream_seed(42, 2), 0x47526757130f9f52ULL);
  EXPECT_EQ(substream_seed(42, 1000), 0x5566dbe893f1b4aeULL);
  EXPECT_EQ(substream_seed(7, 0), 0x63cbe1e459320dd7ULL);
  EXPECT_EQ(substream_seed(7, 1), 0x044c3cd7f43c661cULL);
  EXPECT_EQ(substream_seed(7, 1000), 0xcf1b8d545d1615caULL);
  static_assert(substream_seed(1, 2) == SplitMix64(1 + 2 * 0x9e3779b97f4a7c15ULL).next());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, IndexThrowsOnZero) {
  Rng rng(5);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, UniformRealWithinBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanApproximatesMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, ExponentialMeanRejectsNonPositive) {
  Rng rng(17);
  EXPECT_THROW(rng.exponential_mean(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential_mean(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleChangesOrderEventually) {
  Rng rng(29);
  std::vector<int> v(20);
  for (int i = 0; i < 20; ++i) v[i] = i;
  const auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // 20! permutations; staying identical is ~impossible
}

TEST(Rng, PickReturnsElementOfVector) {
  Rng rng(31);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

// --- Stream state save/restore (checkpoint/resume, DESIGN.md §5.12) ---

TEST(SplitMix64, StateRoundTripsBitExactly) {
  SplitMix64 a(0xFEEDFACECAFEBEEFULL);
  for (int i = 0; i < 17; ++i) a.next();
  // Re-seeding from the exposed state continues the exact sequence.
  SplitMix64 b(a.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngState, SaveRestoreContinuesTheStreamBitExactly) {
  Rng a(12345);
  for (int i = 0; i < 37; ++i) a.uniform();
  const std::string saved = a.save_state();

  // Drive the original forward and record the tail...
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(a.engine()());

  // ...then restore a DIFFERENTLY seeded generator and replay it.
  Rng b(999);
  b.restore_state(saved);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(b.engine()(), expected[static_cast<std::size_t>(i)]);
}

TEST(RngState, RestoredStreamMatchesAcrossDistributionHelpers) {
  Rng a(7);
  for (int i = 0; i < 10; ++i) a.normal(0.0, 1.0);
  const std::string saved = a.save_state();
  Rng b(7);
  b.restore_state(saved);
  // The helpers keep no state between calls, so engine equality implies
  // identical draws through every helper.
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
    EXPECT_DOUBLE_EQ(a.normal(5.0, 2.0), b.normal(5.0, 2.0));
  }
}

TEST(RngState, SaveIsLocaleIndependentText) {
  Rng a(42);
  const std::string saved = a.save_state();
  // The classic-locale stream must not contain grouping separators.
  EXPECT_EQ(saved.find(','), std::string::npos);
  Rng b(1);
  b.restore_state(saved);
  EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(RngState, MalformedStateIsRejected) {
  Rng rng(1);
  EXPECT_THROW(rng.restore_state("not an engine state"), std::invalid_argument);
  EXPECT_THROW(rng.restore_state(""), std::invalid_argument);

  const std::string good = Rng(5).save_state();  // "5 <311 words> 312"
  const std::size_t first_space = good.find(' ');
  // 311 words, then the position.
  EXPECT_THROW(rng.restore_state(good.substr(first_space + 1)), std::invalid_argument);
  // A non-digit inside a word.
  std::string bad = good;
  bad[first_space - 1] = 'x';
  EXPECT_THROW(rng.restore_state(bad), std::invalid_argument);
  // A word above 2^64 - 1.
  EXPECT_THROW(rng.restore_state("18446744073709551616 " + good.substr(first_space + 1)),
               std::invalid_argument);
  // A position above 312: it indexes the state array, so it is range-checked.
  std::string far = good;
  far.replace(far.size() - 3, 3, "313");
  EXPECT_THROW(rng.restore_state(far), std::invalid_argument);
  far.replace(far.size() - 3, 3, "18446744073709551615");
  EXPECT_THROW(rng.restore_state(far), std::invalid_argument);
  // Text after the position.
  EXPECT_THROW(rng.restore_state(good + " 7"), std::invalid_argument);
  // A rejected text leaves the stream untouched.
  Rng untouched(1);
  EXPECT_EQ(rng.engine()(), untouched.engine()());
}

}  // namespace
}  // namespace clr::util
