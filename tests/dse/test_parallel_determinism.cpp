// The generate-then-evaluate contract end-to-end: DesignTimeDse::run must
// produce bit-for-bit identical BaseD/ReD databases at any thread count, and
// the schedule memo must eliminate the redundant re-scheduling of archived
// points (DESIGN.md "Parallel evaluation & determinism").

#include <gtest/gtest.h>

#include "dse/design_time.hpp"
#include "experiments/app.hpp"
#include "experiments/flow.hpp"

namespace clr::dse {
namespace {

DseConfig small_config(std::size_t threads) {
  DseConfig cfg;
  cfg.base_ga.population = 24;
  cfg.base_ga.generations = 12;
  cfg.red_ga.population = 16;
  cfg.red_ga.generations = 8;
  cfg.max_red_seeds = 3;
  cfg.calibration_samples = 32;
  cfg.threads = threads;
  return cfg;
}

void expect_identical(const DesignDb& a, const DesignDb& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& pa = a.point(i);
    const auto& pb = b.point(i);
    EXPECT_TRUE(pa.config == pb.config) << "configs differ at point " << i;
    EXPECT_EQ(pa.energy, pb.energy) << "energy differs at point " << i;
    EXPECT_EQ(pa.makespan, pb.makespan) << "makespan differs at point " << i;
    EXPECT_EQ(pa.func_rel, pb.func_rel) << "func_rel differs at point " << i;
    EXPECT_EQ(pa.extra, pb.extra) << "extra flag differs at point " << i;
  }
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  DesignTimeDse::Result run_with(std::size_t threads) const {
    // Fresh problem per run: the schedule memo must not leak results (or
    // their absence) between thread counts.
    MappingProblem problem(app_->context(), spec_, ObjectiveMode::EnergyQos);
    recfg::ReconfigModel reconfig(app_->platform(), app_->impls());
    DesignTimeDse flow(problem, reconfig, small_config(threads));
    util::Rng rng(kRunSeed);
    return flow.run(rng);
  }

  static void SetUpTestSuite() {
    app_ = exp::make_synthetic_app(12, 777).release();
    util::Rng rng(5);
    spec_ = exp::derive_spec(app_->context(), ObjectiveMode::EnergyQos, 48, 0.85, 0.10, rng);
  }

  static void TearDownTestSuite() {
    delete app_;
    app_ = nullptr;
  }

  static constexpr std::uint64_t kRunSeed = 4242;
  /// Schedule-kernel runs of one small_config(1) flow. Every repeated
  /// genome must stay a schedule-memo lookup, so a memo change that costs
  /// kernel runs fails here.
  static constexpr std::uint64_t kRecordedScheduleRuns = 572;
  static exp::AppInstance* app_;
  static QosSpec spec_;
};

exp::AppInstance* ParallelDeterminismTest::app_ = nullptr;
QosSpec ParallelDeterminismTest::spec_;

TEST_F(ParallelDeterminismTest, FrontsAreThreadCountInvariant) {
  const auto r1 = run_with(1);
  const auto r4 = run_with(4);
  ASSERT_FALSE(r1.based.empty());
  expect_identical(r1.based, r4.based);
  expect_identical(r1.red, r4.red);
}

TEST_F(ParallelDeterminismTest, RunsAreSeedReproducible) {
  const auto a = run_with(2);
  const auto b = run_with(2);
  expect_identical(a.based, b.based);
  expect_identical(a.red, b.red);
}

TEST_F(ParallelDeterminismTest, ScheduleMemoAbsorbsRepeatEvaluations) {
  MappingProblem problem(app_->context(), spec_, ObjectiveMode::EnergyQos);
  recfg::ReconfigModel reconfig(app_->platform(), app_->impls());
  DesignTimeDse flow(problem, reconfig, small_config(1));
  util::Rng rng(kRunSeed);
  const auto result = flow.run(rng);
  ASSERT_FALSE(result.red.empty());

  // Crossover/mutation and ReD front-reseeding re-produce identical genomes
  // constantly — a healthy share of evaluation requests must be memo hits,
  // and every actual scheduler invocation must correspond to a memo miss.
  const auto& cache = problem.schedule_cache();
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), problem.schedule_runs());
  EXPECT_EQ(problem.schedule_runs(), kRecordedScheduleRuns);

  // An already-evaluated genome must not re-run the scheduler when turned
  // into a design point (the old make_point path re-scheduled every archived
  // point).
  util::Rng probe_rng(1234);
  const auto genes = problem.random_genes(probe_rng);
  const auto runs_before = problem.schedule_runs();
  problem.evaluate(genes);
  EXPECT_EQ(problem.schedule_runs(), runs_before + 1);
  flow.make_point(genes, /*extra=*/false);
  problem.evaluate(genes);
  EXPECT_EQ(problem.schedule_runs(), runs_before + 1);
}

TEST_F(ParallelDeterminismTest, CachedMakePointMatchesDirectEvaluation) {
  MappingProblem problem(app_->context(), spec_, ObjectiveMode::EnergyQos);
  recfg::ReconfigModel reconfig(app_->platform(), app_->impls());
  DesignTimeDse flow(problem, reconfig, small_config(1));
  util::Rng rng(99);
  const auto genes = problem.random_genes(rng);
  const DesignPoint cached = flow.make_point(genes, /*extra=*/true);
  const DesignPoint direct = flow.make_point(problem.decode(genes), /*extra=*/true);
  EXPECT_TRUE(cached.config == direct.config);
  EXPECT_EQ(cached.energy, direct.energy);
  EXPECT_EQ(cached.makespan, direct.makespan);
  EXPECT_EQ(cached.func_rel, direct.func_rel);
  EXPECT_TRUE(cached.extra);
}

}  // namespace
}  // namespace clr::dse
