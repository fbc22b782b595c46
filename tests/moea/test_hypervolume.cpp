#include "moea/hypervolume.hpp"

#include <gtest/gtest.h>

#include "hypervolume_mc.hpp"

namespace clr::moea {
namespace {

TEST(Hypervolume2d, SinglePoint) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1.0, 1.0}}, {3.0, 3.0}), 4.0);
}

TEST(Hypervolume2d, EmptyAndOutsidePoints) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({}, {3.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume_2d({{4.0, 1.0}}, {3.0, 3.0}), 0.0);   // beyond ref x
  EXPECT_DOUBLE_EQ(hypervolume_2d({{3.0, 1.0}}, {3.0, 3.0}), 0.0);   // on ref boundary
}

TEST(Hypervolume2d, Staircase) {
  // Classic three-point staircase against ref (4,4):
  // (1,3): strip [1,2)x[3,4) -> 1; (2,2): [2,3)x[2,4) -> 2; (3,1): [3,4)x[1,4) -> 3.
  const double hv = hypervolume_2d({{1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}}, {4.0, 4.0});
  EXPECT_DOUBLE_EQ(hv, 1.0 * 1.0 + 1.0 * 2.0 + 1.0 * 3.0);
}

TEST(Hypervolume2d, DominatedPointAddsNothing) {
  const double without = hypervolume_2d({{1.0, 1.0}}, {4.0, 4.0});
  const double with = hypervolume_2d({{1.0, 1.0}, {2.0, 2.0}}, {4.0, 4.0});
  EXPECT_DOUBLE_EQ(without, with);
}

TEST(Hypervolume2d, DuplicatePointsCountOnce) {
  const double hv = hypervolume_2d({{1.0, 1.0}, {1.0, 1.0}}, {2.0, 2.0});
  EXPECT_DOUBLE_EQ(hv, 1.0);
}

TEST(Hypervolume3d, SinglePointBox) {
  EXPECT_DOUBLE_EQ(hypervolume_3d({{1.0, 1.0, 1.0}}, {2.0, 3.0, 4.0}), 1.0 * 2.0 * 3.0);
}

TEST(Hypervolume3d, TwoDisjointishPoints) {
  // Points (0,2,0) and (2,0,0) vs ref (3,3,1):
  // union area in xy = 3*1 + 1*3 + ... compute: A = [0,3)x[2,3) ∪ [2,3)x[0,3)
  // = (3*1) + (1*3) - (1*1) = 5; depth 1 -> volume 5.
  const double hv = hypervolume_3d({{0.0, 2.0, 0.0}, {2.0, 0.0, 0.0}}, {3.0, 3.0, 1.0});
  EXPECT_DOUBLE_EQ(hv, 5.0);
}

TEST(Hypervolume3d, LayeredPoints) {
  // (1,1,0) covers [1..2]^2 for z in [0,2); (0,0,1) covers [0..2]^2 for z in [1,2).
  // slabs: z in [0,1): area 1 -> 1; z in [1,2): area 4 -> 4. total 5.
  const double hv = hypervolume_3d({{1.0, 1.0, 0.0}, {0.0, 0.0, 1.0}}, {2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(hv, 5.0);
}

TEST(HypervolumeMc, AgreesWithExact2d) {
  const std::vector<std::vector<double>> pts{{1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}};
  const std::vector<double> ref{4.0, 4.0};
  const double exact = hypervolume(pts, ref);
  util::Rng rng(33);
  const double mc = hypervolume_mc(pts, {0.0, 0.0}, ref, 200000, rng);
  EXPECT_NEAR(mc, exact, 0.12);
}

TEST(HypervolumeMc, AgreesWithExact3d) {
  const std::vector<std::vector<double>> pts{{1.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
  const std::vector<double> ref{2.0, 2.0, 2.0};
  const double exact = hypervolume(pts, ref);
  util::Rng rng(34);
  const double mc = hypervolume_mc(pts, {0.0, 0.0, 0.0}, ref, 200000, rng);
  EXPECT_NEAR(mc, exact, 0.1);
}

TEST(Hypervolume, DispatchErrors) {
  EXPECT_THROW(hypervolume({{1.0, 2.0, 3.0, 4.0}}, {5.0, 5.0, 5.0, 5.0}), std::invalid_argument);
  EXPECT_THROW(hypervolume({{1.0}}, {5.0, 5.0}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(hypervolume({}, {1.0}), 0.0);
}

TEST(SignedPointHv, FeasibleIsPositiveProduct) {
  const double hv = signed_point_hypervolume({1.0, 2.0}, {3.0, 4.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(hv, 2.0 * 2.0);
}

TEST(SignedPointHv, ScaleNormalizesUnits) {
  const double hv = signed_point_hypervolume({1.0, 2.0}, {3.0, 4.0}, {0.5, 2.0});
  EXPECT_DOUBLE_EQ(hv, (2.0 * 0.5) * (2.0 * 2.0));
}

TEST(SignedPointHv, InfeasibleIsNegativePenalty) {
  // Fig. 4a: infeasible fitness is the negative distance beyond R.
  const double hv = signed_point_hypervolume({5.0, 1.0}, {3.0, 4.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(hv, -2.0);
  const double both = signed_point_hypervolume({5.0, 6.0}, {3.0, 4.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(both, -4.0);
}

TEST(SignedPointHv, InfeasibleAlwaysBelowFeasible) {
  const double feas = signed_point_hypervolume({2.99, 3.99}, {3.0, 4.0}, {1.0, 1.0});
  const double infeas = signed_point_hypervolume({3.001, 0.0}, {3.0, 4.0}, {1.0, 1.0});
  EXPECT_GT(feas, 0.0);
  EXPECT_LT(infeas, 0.0);
}

TEST(SignedPointHv, DimensionMismatchThrows) {
  EXPECT_THROW(signed_point_hypervolume({1.0}, {1.0, 2.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(signed_point_hypervolume({1.0, 2.0}, {1.0, 2.0}, {1.0}), std::invalid_argument);
}

/// Brute-force cross-check: random 2-D fronts, MC vs exact.
class HvRandomCheck : public ::testing::TestWithParam<int> {};

TEST_P(HvRandomCheck, ExactMatchesMonteCarlo) {
  util::Rng rng(100 + GetParam());
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 8; ++i) pts.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  const std::vector<double> ref{1.0, 1.0};
  const double exact = hypervolume(pts, ref);
  const double mc = hypervolume_mc(pts, {0.0, 0.0}, ref, 150000, rng);
  EXPECT_NEAR(mc, exact, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HvRandomCheck, ::testing::Range(0, 6));

}  // namespace
}  // namespace clr::moea
