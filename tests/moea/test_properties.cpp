// Randomized property tests (seeded, deterministic) for the optimization
// substrate: the Pareto archive's structural invariant and hypervolume's
// set-function laws. Each property runs over many derived seeds so a
// regression shows up as a concrete failing seed, reproducible by rerunning
// the test.

#include <algorithm>
#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "moea/archive.hpp"
#include "moea/hypervolume.hpp"
#include "moea/individual.hpp"

namespace clr::moea {
namespace {

Individual random_individual(util::Rng& rng, int id, std::size_t dims) {
  Individual ind;
  ind.genes = {id};
  ind.eval.objectives.resize(dims);
  for (auto& o : ind.eval.objectives) o = rng.uniform(0.0, 10.0);
  // ~1 in 8 candidates infeasible: the archive must reject them outright.
  ind.eval.violation = rng.chance(0.125) ? rng.uniform(0.1, 1.0) : 0.0;
  return ind;
}

/// Core invariant: no archived member is dominated by (or identical in
/// objectives to) any other member, and none is infeasible.
void expect_archive_invariant(const ParetoArchive& archive) {
  const auto& m = archive.members();
  for (const auto& ind : m) EXPECT_EQ(ind.eval.violation, 0.0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(dominates(m[i].eval.objectives, m[j].eval.objectives))
          << "member " << i << " dominates member " << j;
      EXPECT_NE(m[i].eval.objectives, m[j].eval.objectives)
          << "members " << i << " and " << j << " share an objective point";
    }
  }
}

TEST(ArchiveProperty, NeverHoldsDominatedOrInfeasibleMembers) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(util::SplitMix64(seed).next());
    ParetoArchive archive;
    const std::size_t dims = 2 + seed % 2;  // alternate 2-D / 3-D fronts
    for (int i = 0; i < 200; ++i) archive.insert(random_individual(rng, i, dims));
    ASSERT_FALSE(archive.empty()) << "seed " << seed;
    expect_archive_invariant(archive);
  }
}

TEST(ArchiveProperty, InsertReportsExactlyTheSurvivors) {
  // insert() returning true must mean the candidate is now a member;
  // returning false must leave the membership unchanged.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    util::Rng rng(util::SplitMix64(seed).next());
    ParetoArchive archive;
    for (int i = 0; i < 150; ++i) {
      const Individual cand = random_individual(rng, i, 2);
      const std::size_t before = archive.size();
      const bool added = archive.insert(cand);
      const auto& m = archive.members();
      const bool present =
          std::any_of(m.begin(), m.end(),
                      [&](const Individual& ind) { return ind.genes == cand.genes; });
      EXPECT_EQ(added, present) << "seed " << seed << " candidate " << i;
      if (!added) {
        EXPECT_EQ(archive.size(), before);
      }
      expect_archive_invariant(archive);
    }
  }
}

TEST(ArchiveProperty, EveryRejectedFeasibleCandidateIsCoveredByAMember) {
  // A feasible candidate the archive refuses must be dominated by — or
  // objective-identical to — something the archive kept.
  util::Rng rng(0xA5A5A5A5ULL);
  ParetoArchive archive;
  for (int i = 0; i < 300; ++i) {
    const Individual cand = random_individual(rng, i, 2);
    if (archive.insert(cand) || cand.eval.violation > 0.0) continue;
    const auto& m = archive.members();
    const bool covered = std::any_of(m.begin(), m.end(), [&](const Individual& ind) {
      return dominates(ind.eval.objectives, cand.eval.objectives) ||
             ind.eval.objectives == cand.eval.objectives;
    });
    EXPECT_TRUE(covered) << "candidate " << i << " rejected but uncovered";
  }
}

TEST(HypervolumeProperty, MonotonicallyNonDecreasingUnderInsertion2d) {
  const std::array<double, 2> ref{10.0, 10.0};
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    util::Rng rng(util::SplitMix64(0x48560000ULL + seed).next());
    std::vector<std::array<double, 2>> points;
    double prev = 0.0;
    for (int i = 0; i < 40; ++i) {
      // Include points outside the reference box: they must contribute 0,
      // never a decrease.
      points.push_back({rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)});
      const double hv = hypervolume_2d(points, ref);
      EXPECT_GE(hv, prev - 1e-12) << "seed " << seed << " after point " << i;
      prev = hv;
    }
  }
}

TEST(HypervolumeProperty, MonotonicallyNonDecreasingUnderInsertion3d) {
  const std::array<double, 3> ref{10.0, 10.0, 10.0};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(util::SplitMix64(0x48563000ULL + seed).next());
    std::vector<std::array<double, 3>> points;
    double prev = 0.0;
    for (int i = 0; i < 25; ++i) {
      points.push_back(
          {rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)});
      const double hv = hypervolume_3d(points, ref);
      EXPECT_GE(hv, prev - 1e-12) << "seed " << seed << " after point " << i;
      prev = hv;
    }
  }
}

TEST(HypervolumeProperty, InvariantUnderPermutation) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(util::SplitMix64(0x9e70000ULL + seed).next());
    std::vector<std::array<double, 2>> pts2;
    std::vector<std::array<double, 3>> pts3;
    for (int i = 0; i < 30; ++i) {
      pts2.push_back({rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
      pts3.push_back(
          {rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
    }
    const double hv2 = hypervolume_2d(pts2, {10.0, 10.0});
    const double hv3 = hypervolume_3d(pts3, {10.0, 10.0, 10.0});
    for (int shuffle = 0; shuffle < 5; ++shuffle) {
      // Deterministic Fisher-Yates via the seeded Rng.
      for (std::size_t i = pts2.size(); i > 1; --i) {
        std::swap(pts2[i - 1], pts2[rng.index(i)]);
        std::swap(pts3[i - 1], pts3[rng.index(i)]);
      }
      EXPECT_DOUBLE_EQ(hypervolume_2d(pts2, {10.0, 10.0}), hv2) << "seed " << seed;
      EXPECT_DOUBLE_EQ(hypervolume_3d(pts3, {10.0, 10.0, 10.0}), hv3) << "seed " << seed;
    }
  }
}

TEST(HypervolumeProperty, DominatedPointsNeverChangeTheValue) {
  util::Rng rng(0xD0D0ULL);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::array<double, 2>> pts;
    for (int i = 0; i < 10; ++i) pts.push_back({rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)});
    const double base = hypervolume_2d(pts, {10.0, 10.0});
    // Add a point dominated by an existing one: value must be identical.
    const auto& host = pts[rng.index(pts.size())];
    pts.push_back({host[0] + rng.uniform(0.0, 4.0), host[1] + rng.uniform(0.0, 4.0)});
    EXPECT_DOUBLE_EQ(hypervolume_2d(pts, {10.0, 10.0}), base) << "trial " << trial;
  }
}

}  // namespace
}  // namespace clr::moea
