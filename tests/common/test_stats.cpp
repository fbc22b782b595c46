#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace clr::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats a, b, combined;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7 - 3.0;
    a.add(x);
    combined.add(x);
  }
  for (int i = 0; i < 70; ++i) {
    const double x = i * -0.3 + 11.0;
    b.add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  RunningStats c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), mean_before);
}

TEST(Percentile, KnownQuantiles) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.125), 1.5);  // interpolated
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.3), 7.0);
}

TEST(Percentile, Errors) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.1), std::invalid_argument);
}

TEST(MinMaxNorm, Basics) {
  EXPECT_DOUBLE_EQ(min_max_norm(5.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(min_max_norm(0.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(min_max_norm(10.0, 0.0, 10.0), 1.0);
}

TEST(MinMaxNorm, ClampsOutOfRange) {
  EXPECT_DOUBLE_EQ(min_max_norm(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(min_max_norm(11.0, 0.0, 10.0), 1.0);
}

TEST(MinMaxNorm, DegenerateRangeIsZero) {
  // Algorithm 1 convention: a single-candidate feasible set is not penalized.
  EXPECT_DOUBLE_EQ(min_max_norm(5.0, 5.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(min_max_norm(5.0, 6.0, 5.0), 0.0);
}

TEST(StudentT95, KnownCriticalValues) {
  EXPECT_NEAR(student_t_95(1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_95(4), 2.776, 1e-3);
  EXPECT_NEAR(student_t_95(10), 2.228, 1e-3);
  EXPECT_NEAR(student_t_95(30), 2.042, 1e-3);
  EXPECT_NEAR(student_t_95(1000), 1.960, 1e-3);  // normal limit
  EXPECT_TRUE(std::isinf(student_t_95(0)));
}

TEST(Summarize, ComputesConfidenceInterval) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  const Summary sum = summarize(s);
  EXPECT_EQ(sum.count, 8u);
  EXPECT_DOUBLE_EQ(sum.mean, 5.0);
  EXPECT_DOUBLE_EQ(sum.min, 2.0);
  EXPECT_DOUBLE_EQ(sum.max, 9.0);
  const double stddev = std::sqrt(32.0 / 7.0);
  EXPECT_NEAR(sum.stddev, stddev, 1e-12);
  // ci95 = t(n-1) * s / sqrt(n) with t(7) = 2.365.
  EXPECT_NEAR(sum.ci95, 2.365 * stddev / std::sqrt(8.0), 1e-9);
}

TEST(Summarize, DegenerateCases) {
  RunningStats empty;
  const Summary e = summarize(empty);
  EXPECT_EQ(e.count, 0u);
  EXPECT_DOUBLE_EQ(e.ci95, 0.0);

  RunningStats one;
  one.add(3.0);
  const Summary o = summarize(one);
  EXPECT_EQ(o.count, 1u);
  EXPECT_DOUBLE_EQ(o.mean, 3.0);
  EXPECT_DOUBLE_EQ(o.ci95, 0.0);  // no interval from a single sample
}

TEST(Summarize, SingleReplicationIsNanFree) {
  // The replicated harness accepts --replications 1; every Summary field
  // must stay finite (stddev/ci95 collapse to 0, min == mean == max).
  RunningStats one;
  one.add(42.5);
  const Summary s = summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 42.5);
  EXPECT_DOUBLE_EQ(s.max, 42.5);
  for (double v : {s.mean, s.stddev, s.ci95, s.min, s.max}) {
    EXPECT_FALSE(std::isnan(v));
    EXPECT_FALSE(std::isinf(v));
  }
}

TEST(StudentT95, SmallSampleEdgeCases) {
  // df = 0 (one replication): no interval exists — the sentinel is +inf,
  // and summarize() must never multiply by it (ci95 stays 0 for n = 1).
  EXPECT_TRUE(std::isinf(student_t_95(0)));
  EXPECT_NEAR(student_t_95(1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_95(2), 4.303, 1e-3);
  EXPECT_NEAR(student_t_95(3), 3.182, 1e-3);
  // Monotone decreasing in df, approaching the normal 1.96 from above.
  double prev = student_t_95(1);
  for (std::size_t df = 2; df <= 200; ++df) {
    const double t = student_t_95(df);
    EXPECT_LE(t, prev + 1e-12) << "df " << df;
    EXPECT_GT(t, 1.959) << "df " << df;
    prev = t;
  }
}

}  // namespace
}  // namespace clr::util
