#include "moea/nsga2.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace clr::moea {
namespace {

/// Discretized bi-objective test problem with a known convex Pareto front:
/// x = mean(genes)/9 in [0,1]; f1 = x, f2 = 1 - sqrt(x) (ZDT1 with g = 1).
class Zdt1Lite : public Problem {
 public:
  explicit Zdt1Lite(std::size_t n = 8) : n_(n) {}
  std::size_t num_genes() const override { return n_; }
  int domain_size(std::size_t) const override { return 10; }
  std::size_t num_objectives() const override { return 2; }
  Evaluation evaluate(const std::vector<int>& genes) const override {
    double x = 0.0;
    for (int g : genes) x += g;
    x /= 9.0 * static_cast<double>(n_);
    // g > 1 whenever genes disagree, pushing the front toward uniform genes.
    double spread = 0.0;
    for (int g : genes) spread += std::abs(g / 9.0 - x);
    const double g_term = 1.0 + spread / static_cast<double>(n_);
    return Evaluation{{x, g_term * (1.0 - std::sqrt(x / g_term))}, 0.0};
  }

 private:
  std::size_t n_;
};

/// Constrained single-front problem: minimize (x, 9-x) with x = gene sum,
/// feasible only when x >= 3.
class ConstrainedLine : public Problem {
 public:
  std::size_t num_genes() const override { return 1; }
  int domain_size(std::size_t) const override { return 10; }
  std::size_t num_objectives() const override { return 2; }
  Evaluation evaluate(const std::vector<int>& genes) const override {
    const double x = genes[0];
    Evaluation e{{x, 9.0 - x}, 0.0};
    if (x < 3.0) e.violation = 3.0 - x;
    return e;
  }
};

TEST(NonDominatedSort, RanksKnownLayers) {
  std::vector<Individual> pop(4);
  pop[0].eval = {{1.0, 1.0}, 0.0};  // front 0
  pop[1].eval = {{2.0, 2.0}, 0.0};  // front 1 (dominated by 0)
  pop[2].eval = {{0.5, 3.0}, 0.0};  // front 0 (trade-off with 0)
  pop[3].eval = {{3.0, 3.0}, 0.0};  // front 2 (dominated by 0 and 1)
  const auto fronts = non_dominated_sort(pop);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(pop[0].rank, 0);
  EXPECT_EQ(pop[2].rank, 0);
  EXPECT_EQ(pop[1].rank, 1);
  EXPECT_EQ(pop[3].rank, 2);
}

TEST(NonDominatedSort, InfeasibleAlwaysRanksBelowFeasible) {
  std::vector<Individual> pop(2);
  pop[0].eval = {{100.0, 100.0}, 0.0};  // terrible but feasible
  pop[1].eval = {{0.0, 0.0}, 0.1};      // perfect but infeasible
  non_dominated_sort(pop);
  EXPECT_LT(pop[0].rank, pop[1].rank);
}

TEST(AssignCrowding, ExtremesAreInfinite) {
  std::vector<Individual> pop(4);
  pop[0].eval = {{0.0, 3.0}, 0.0};
  pop[1].eval = {{1.0, 2.0}, 0.0};
  pop[2].eval = {{2.0, 1.0}, 0.0};
  pop[3].eval = {{3.0, 0.0}, 0.0};
  assign_crowding(pop, {0, 1, 2, 3});
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[3].crowding));
  EXPECT_FALSE(std::isinf(pop[1].crowding));
  // Interior crowding for evenly spaced points: (2-0)/3 per objective x2.
  EXPECT_NEAR(pop[1].crowding, 4.0 / 3.0, 1e-12);
}

TEST(AssignCrowding, TinyFrontsAllInfinite) {
  std::vector<Individual> pop(2);
  pop[0].eval = {{0.0, 1.0}, 0.0};
  pop[1].eval = {{1.0, 0.0}, 0.0};
  assign_crowding(pop, {0, 1});
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[1].crowding));
}

TEST(NonDominatedSort, AllIdenticalObjectivesFormOneFront) {
  std::vector<Individual> pop(5);
  for (auto& ind : pop) ind.eval = {{1.5, 2.5}, 0.0};
  const auto fronts = non_dominated_sort(pop);
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0].size(), 5u);
  for (const auto& ind : pop) EXPECT_EQ(ind.rank, 0);
}

TEST(AssignCrowding, SinglePointFrontIsInfinite) {
  std::vector<Individual> pop(1);
  pop[0].eval = {{1.0, 2.0}, 0.0};
  assign_crowding(pop, {0});
  EXPECT_TRUE(std::isinf(pop[0].crowding));
}

TEST(AssignCrowding, IdenticalObjectivesDegenerateRange) {
  // hi == lo on every objective: the boundary points of the sorted order get
  // infinity, interior points keep zero — no division by the zero-width band.
  std::vector<Individual> pop(4);
  for (auto& ind : pop) ind.eval = {{3.0, 3.0}, 0.0};
  assign_crowding(pop, {0, 1, 2, 3});
  std::size_t infinite = 0;
  for (const auto& ind : pop) {
    EXPECT_FALSE(std::isnan(ind.crowding));
    if (std::isinf(ind.crowding)) ++infinite;
    else EXPECT_DOUBLE_EQ(ind.crowding, 0.0);
  }
  EXPECT_EQ(infinite, 2u);
}

TEST(AssignCrowding, EmptyFrontIsANoop) {
  std::vector<Individual> pop(2);
  pop[0].eval = {{0.0, 1.0}, 0.0};
  pop[1].eval = {{1.0, 0.0}, 0.0};
  assign_crowding(pop, {});  // must not touch pop (or crash)
  EXPECT_DOUBLE_EQ(pop[0].crowding, 0.0);
  EXPECT_DOUBLE_EQ(pop[1].crowding, 0.0);
}

/// Counts actual evaluate() calls (genes are wide enough that random
/// chromosomes are distinct, so batch deduplication does not hide calls).
class CountingZdt : public Zdt1Lite {
 public:
  Evaluation evaluate(const std::vector<int>& genes) const override {
    ++evaluations;
    return Zdt1Lite::evaluate(genes);
  }
  mutable std::size_t evaluations = 0;
};

TEST(Nsga2, OddPopulationSkipsTheSurplusOffspringEvaluation) {
  CountingZdt prob;
  GaParams params;
  params.population = 5;
  params.generations = 3;
  params.mutation_prob = 0.9;  // keep children distinct from parents/siblings
  params.threads = 1;
  util::Rng rng(17);
  Nsga2(params).run(prob, rng);
  // 5 initial + 5 offspring per generation; the discarded second child of
  // the last pair is no longer evaluated.
  EXPECT_EQ(prob.evaluations, 5u + 3u * 5u);
}

TEST(Nsga2, ThreadCountDoesNotChangeTheResult) {
  Zdt1Lite prob;
  GaParams params;
  params.population = 24;
  params.generations = 12;
  params.threads = 1;
  util::Rng a(23), b(23);
  const auto seq = Nsga2(params).run(prob, a);
  params.threads = 4;
  const auto par = Nsga2(params).run(prob, b);
  ASSERT_EQ(seq.population.size(), par.population.size());
  for (std::size_t i = 0; i < seq.population.size(); ++i) {
    EXPECT_EQ(seq.population[i].genes, par.population[i].genes);
    EXPECT_EQ(seq.population[i].eval.objectives, par.population[i].eval.objectives);
  }
  ASSERT_EQ(seq.archive.size(), par.archive.size());
  for (std::size_t i = 0; i < seq.archive.size(); ++i) {
    EXPECT_EQ(seq.archive.members()[i].genes, par.archive.members()[i].genes);
  }
}

TEST(Nsga2, ConvergesTowardZdt1Front) {
  Zdt1Lite prob;
  GaParams params;
  params.population = 60;
  params.generations = 60;
  util::Rng rng(42);
  const auto result = Nsga2(params).run(prob, rng);

  ASSERT_FALSE(result.archive.empty());
  // Every archived point should be close to the true front f2 = 1 - sqrt(f1):
  // allow slack for the discrete spread penalty.
  double worst_gap = 0.0;
  for (const auto& ind : result.archive.members()) {
    const double f1 = ind.eval.objectives[0];
    const double f2 = ind.eval.objectives[1];
    worst_gap = std::max(worst_gap, f2 - (1.0 - std::sqrt(f1)));
  }
  EXPECT_LT(worst_gap, 0.15);
  // The front must be spread, not collapsed to a point.
  double f1_min = 1e9, f1_max = -1e9;
  for (const auto& ind : result.archive.members()) {
    f1_min = std::min(f1_min, ind.eval.objectives[0]);
    f1_max = std::max(f1_max, ind.eval.objectives[0]);
  }
  EXPECT_GT(f1_max - f1_min, 0.4);
}

TEST(Nsga2, HandlesConstraints) {
  ConstrainedLine prob;
  GaParams params;
  params.population = 20;
  params.generations = 20;
  util::Rng rng(43);
  const auto result = Nsga2(params).run(prob, rng);
  ASSERT_FALSE(result.archive.empty());
  for (const auto& ind : result.archive.members()) {
    EXPECT_GE(ind.genes[0], 3);  // only feasible points archived
  }
  // All feasible points of this problem are mutually non-dominated, so the
  // archive should cover several of them.
  EXPECT_GE(result.archive.size(), 3u);
}

TEST(Nsga2, SeedsSurviveToArchive) {
  ConstrainedLine prob;
  GaParams params;
  params.population = 8;
  params.generations = 2;
  util::Rng rng(44);
  const auto result = Nsga2(params).run(prob, rng, {{7}});
  bool found = false;
  for (const auto& ind : result.archive.members()) {
    found |= ind.genes[0] == 7;
  }
  EXPECT_TRUE(found);
}

TEST(Nsga2, DeterministicPerSeed) {
  Zdt1Lite prob;
  GaParams params;
  params.population = 20;
  params.generations = 10;
  util::Rng a(7), b(7);
  const auto ra = Nsga2(params).run(prob, a);
  const auto rb = Nsga2(params).run(prob, b);
  ASSERT_EQ(ra.archive.size(), rb.archive.size());
  for (std::size_t i = 0; i < ra.archive.size(); ++i) {
    EXPECT_EQ(ra.archive.members()[i].genes, rb.archive.members()[i].genes);
  }
}

TEST(Nsga2, RejectsTinyPopulation) {
  Zdt1Lite prob;
  GaParams params;
  params.population = 1;
  util::Rng rng(1);
  EXPECT_THROW(Nsga2(params).run(prob, rng), std::invalid_argument);
}

}  // namespace
}  // namespace clr::moea
