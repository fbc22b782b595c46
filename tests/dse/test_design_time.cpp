#include "dse/design_time.hpp"

#include <gtest/gtest.h>

#include "experiments/app.hpp"
#include "experiments/flow.hpp"

namespace clr::dse {
namespace {

/// Shared small flow (design-time GA runs are the expensive part; one run,
/// many assertions).
class DesignTimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    app_ = exp::make_synthetic_app(14, 4242).release();
    util::Rng rng(99);
    spec_ = exp::derive_spec(app_->context(), ObjectiveMode::EnergyQos, 48, 0.85, 0.10, rng);
    problem_ = new MappingProblem(app_->context(), spec_, ObjectiveMode::EnergyQos);
    reconfig_ = new recfg::ReconfigModel(app_->platform(), app_->impls());

    DseConfig cfg;
    cfg.base_ga.population = 40;
    cfg.base_ga.generations = 30;
    cfg.red_ga.population = 24;
    cfg.red_ga.generations = 15;
    cfg.max_red_seeds = 6;
    flow_ = new DesignTimeDse(*problem_, *reconfig_, cfg);
    based_ = new DesignDb(flow_->run_base(rng));
    red_ = new DesignDb(flow_->run_red(*based_, rng));
  }

  static void TearDownTestSuite() {
    delete red_;
    delete based_;
    delete flow_;
    delete reconfig_;
    delete problem_;
    delete app_;
    red_ = nullptr;
    based_ = nullptr;
    flow_ = nullptr;
    reconfig_ = nullptr;
    problem_ = nullptr;
    app_ = nullptr;
  }

  static exp::AppInstance* app_;
  static QosSpec spec_;
  static MappingProblem* problem_;
  static recfg::ReconfigModel* reconfig_;
  static DesignTimeDse* flow_;
  static DesignDb* based_;
  static DesignDb* red_;
};

exp::AppInstance* DesignTimeTest::app_ = nullptr;
QosSpec DesignTimeTest::spec_;
MappingProblem* DesignTimeTest::problem_ = nullptr;
recfg::ReconfigModel* DesignTimeTest::reconfig_ = nullptr;
DesignTimeDse* DesignTimeTest::flow_ = nullptr;
DesignDb* DesignTimeTest::based_ = nullptr;
DesignDb* DesignTimeTest::red_ = nullptr;

TEST_F(DesignTimeTest, BaseDbIsNonEmptyAndWithinBudget) {
  ASSERT_FALSE(based_->empty());
  EXPECT_LE(based_->size(), flow_->config().max_base_points);
}

TEST_F(DesignTimeTest, BaseDbPointsAreFeasible) {
  for (const auto& p : based_->points()) {
    EXPECT_LE(p.makespan, spec_.max_makespan);
    EXPECT_GE(p.func_rel, spec_.min_func_rel);
    EXPECT_FALSE(p.extra);
  }
}

TEST_F(DesignTimeTest, BaseDbPointsAreMutuallyNonDominated) {
  const auto& pts = based_->points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (i == j) continue;
      const bool dominates = pts[i].energy <= pts[j].energy &&
                             pts[i].makespan <= pts[j].makespan &&
                             pts[i].func_rel >= pts[j].func_rel &&
                             (pts[i].energy < pts[j].energy ||
                              pts[i].makespan < pts[j].makespan ||
                              pts[i].func_rel > pts[j].func_rel);
      EXPECT_FALSE(dominates) << "point " << i << " dominates " << j;
    }
  }
}

TEST_F(DesignTimeTest, CachedMetricsMatchReEvaluation) {
  for (const auto& p : based_->points()) {
    const auto res = problem_->evaluate_schedule(p.config);
    EXPECT_DOUBLE_EQ(res.energy, p.energy);
    EXPECT_DOUBLE_EQ(res.makespan, p.makespan);
    EXPECT_DOUBLE_EQ(res.func_rel, p.func_rel);
  }
}

TEST_F(DesignTimeTest, RedContainsAllBasePoints) {
  ASSERT_GE(red_->size(), based_->size());
  for (const auto& bp : based_->points()) {
    bool found = false;
    for (const auto& rp : red_->points()) {
      if (rp.config == bp.config) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(DesignTimeTest, RedExtrasRespectGlobalSpec) {
  for (const auto& p : red_->points()) {
    if (!p.extra) continue;
    EXPECT_LE(p.makespan, spec_.max_makespan * (1.0 + 1e-9));
    EXPECT_GE(p.func_rel, spec_.min_func_rel - 1e-9);
  }
}

TEST_F(DesignTimeTest, RedExtrasAreCheaperToReachThanSomeBasePoint) {
  // Every extra exists because its average dRC to the base set is lower than
  // its seed's; at minimum it must beat the *worst* base point.
  if (red_->num_extra() == 0) GTEST_SKIP() << "no extras found on this seed";
  const auto base_configs = based_->configurations();
  double worst_base = 0.0;
  for (const auto& bp : based_->points()) {
    worst_base = std::max(worst_base, reconfig_->average_drc(bp.config, base_configs));
  }
  for (const auto& p : red_->points()) {
    if (!p.extra) continue;
    EXPECT_LT(reconfig_->average_drc(p.config, base_configs), worst_base);
  }
}

TEST_F(DesignTimeTest, RunRedRejectsEmptyBase) {
  util::Rng rng(1);
  DesignDb empty;
  EXPECT_THROW(flow_->run_red(empty, rng), std::invalid_argument);
}

TEST(RedProblem, RejectsEmptyBaseSet) {
  auto app = exp::make_synthetic_app(8, 5);
  MappingProblem prob(app->context(), QosSpec{1e6, 0.0}, ObjectiveMode::EnergyQos);
  recfg::ReconfigModel reconfig(app->platform(), app->impls());
  DseConfig cfg;
  DesignPoint seed;
  const recfg::DrcTable empty_base(reconfig, {});
  EXPECT_THROW(RedProblem(prob, empty_base, seed, MetricRanges{}, cfg), std::invalid_argument);
}

TEST(DeriveSpec, ProducesAchievableCorner) {
  auto app = exp::make_synthetic_app(10, 6);
  util::Rng rng(2);
  const auto spec =
      exp::derive_spec(app->context(), ObjectiveMode::EnergyQos, 32, 0.85, 0.10, rng);
  EXPECT_GT(spec.max_makespan, 0.0);
  EXPECT_GT(spec.min_func_rel, 0.0);
  EXPECT_LT(spec.min_func_rel, 1.0);
  // A fresh random sample should be feasible reasonably often.
  dse::MappingProblem prob(app->context(), spec, ObjectiveMode::EnergyQos);
  int feasible = 0;
  for (int i = 0; i < 40; ++i) {
    if (prob.evaluate(prob.random_genes(rng)).feasible()) ++feasible;
  }
  EXPECT_GT(feasible, 5);
}

}  // namespace
}  // namespace clr::dse
