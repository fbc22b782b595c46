// Cross-validation of the analytical Table 2/3 models against Monte-Carlo
// fault injection: the central correctness argument for the metric models.

#include "sim/fault_injection.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "experiments/app.hpp"
#include "dse/mapping_problem.hpp"

namespace clr::sim {
namespace {

/// Shared app + a fixed random configuration.
class InjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = exp::make_synthetic_app(12, 0xFA57);
    problem_ = std::make_unique<dse::MappingProblem>(app_->context(), dse::QosSpec{1e9, 0.0},
                                                     dse::ObjectiveMode::EnergyQos);
    util::Rng rng(5);
    cfg_ = problem_->decode(problem_->random_genes(rng));
  }

  std::unique_ptr<exp::AppInstance> app_;
  std::unique_ptr<dse::MappingProblem> problem_;
  sched::Configuration cfg_;
};

TEST_F(InjectionTest, ZeroFaultRateMatchesAnalyticalExactly) {
  sched::EvalContext ctx = app_->context();
  ctx.metrics = rel::MetricsModel(rel::FaultModel{0.0});
  MonteCarloValidator validator(ctx);
  util::Rng rng(1);
  const auto one = validator.run_once(cfg_, rng);
  const auto analytical = sched::ListScheduler{}.run(ctx, cfg_);
  EXPECT_NEAR(one.makespan, analytical.makespan, 1e-9);
  EXPECT_NEAR(one.energy, analytical.energy, 1e-6);
  EXPECT_DOUBLE_EQ(one.weighted_success, 1.0);
  EXPECT_EQ(one.reexecutions, 0u);
  for (bool failed : one.task_failed) EXPECT_FALSE(failed);
}

TEST_F(InjectionTest, EmpiricalErrorRatesMatchAnalytical) {
  MonteCarloValidator validator(app_->context());
  util::Rng rng(2);
  const std::size_t runs = 20000;
  const auto agg = validator.run_many(cfg_, runs, rng);
  const auto analytical = sched::ListScheduler{}.run(app_->context(), cfg_);
  for (tg::TaskId t = 0; t < app_->graph().num_tasks(); ++t) {
    const double p = analytical.tasks[t].metrics.err_prob;
    // 4-sigma binomial band plus a small model term for the second-order
    // effects the analytical model drops (silent errors during retries).
    const double sigma = std::sqrt(std::max(p * (1 - p), 1e-9) / runs);
    EXPECT_NEAR(agg.task_error_rate[t], p, 4 * sigma + 0.1 * p + 5e-4)
        << "task " << t << " analytical " << p << " empirical " << agg.task_error_rate[t];
  }
}

TEST_F(InjectionTest, EmpiricalFappMatchesAnalytical) {
  MonteCarloValidator validator(app_->context());
  util::Rng rng(3);
  const auto agg = validator.run_many(cfg_, 20000, rng);
  const auto analytical = sched::ListScheduler{}.run(app_->context(), cfg_);
  EXPECT_NEAR(agg.weighted_success.mean(), analytical.func_rel, 2e-3);
}

TEST_F(InjectionTest, EmpiricalMakespanMatchesAnalyticalAverage) {
  MonteCarloValidator validator(app_->context());
  util::Rng rng(4);
  const auto agg = validator.run_many(cfg_, 8000, rng);
  const auto analytical = sched::ListScheduler{}.run(app_->context(), cfg_);
  // Average makespans agree to ~1%: re-execution inflation is the only
  // stochastic term and both sides model it the same way (to first order).
  EXPECT_NEAR(agg.makespan.mean(), analytical.makespan, 0.01 * analytical.makespan + 0.5);
  // The deterministic lower bound: no run can beat the error-free makespan.
  sched::EvalContext no_fault_ctx = app_->context();
  no_fault_ctx.metrics = rel::MetricsModel(rel::FaultModel{0.0});
  const auto error_free = sched::ListScheduler{}.run(no_fault_ctx, cfg_);
  EXPECT_GE(agg.makespan.min(), error_free.makespan - 1e-9);
}

TEST_F(InjectionTest, EmpiricalEnergyMatchesAnalytical) {
  MonteCarloValidator validator(app_->context());
  util::Rng rng(5);
  const auto agg = validator.run_many(cfg_, 8000, rng);
  const auto analytical = sched::ListScheduler{}.run(app_->context(), cfg_);
  EXPECT_NEAR(agg.energy.mean(), analytical.energy, 0.01 * analytical.energy);
}

TEST_F(InjectionTest, DeterministicPerSeed) {
  MonteCarloValidator validator(app_->context());
  util::Rng a(7), b(7);
  const auto ra = validator.run_many(cfg_, 200, a);
  const auto rb = validator.run_many(cfg_, 200, b);
  EXPECT_DOUBLE_EQ(ra.makespan.mean(), rb.makespan.mean());
  EXPECT_DOUBLE_EQ(ra.energy.mean(), rb.energy.mean());
  EXPECT_EQ(ra.task_error_rate, rb.task_error_rate);
}

TEST_F(InjectionTest, RejectsBadInputs) {
  MonteCarloValidator validator(app_->context());
  util::Rng rng(8);
  sched::Configuration wrong;
  EXPECT_THROW(validator.run_once(wrong, rng), std::invalid_argument);
  EXPECT_THROW(validator.run_many(cfg_, 0, rng), std::invalid_argument);

  // Out-of-range and incompatible assignments, placed on the task dispatched
  // last: each throws the kernel's typed error before the first draw.
  const sched::EvalContext& ctx = app_->context();
  sched::EvalScratch scratch;
  validator.graph().evaluate(cfg_, scratch);
  const tg::TaskId t = scratch.order.back();
  std::vector<std::pair<sched::Configuration, std::string>> bad(4, {cfg_, ""});
  bad[0].first[t].pe = 99;
  bad[0].second = "ListScheduler: PE id out of range";
  bad[1].first[t].impl_index = static_cast<std::uint32_t>(ctx.impls->for_task(t).size());
  bad[1].second = "ListScheduler: impl_index out of range";
  bad[2].first[t].clr_index = static_cast<std::uint32_t>(ctx.clr_space->size());
  bad[2].second = "ListScheduler: clr_index out of range";
  const plat::PeTypeId impl_type = ctx.impls->for_task(t)[cfg_[t].impl_index].pe_type;
  for (const auto& pe : ctx.platform->pes()) {
    if (pe.type != impl_type) bad[3].first[t].pe = pe.id;
  }
  ASSERT_NE(ctx.platform->pe(bad[3].first[t].pe).type, impl_type);
  bad[3].second = "ListScheduler: implementation incompatible with bound PE";

  for (const auto& [cfg, message] : bad) {
    SCOPED_TRACE(message);
    const util::Rng before = rng;
    for (const bool many : {false, true}) {
      try {
        if (many) {
          (void)validator.run_many(cfg, 10, rng);
        } else {
          (void)validator.run_once(cfg, rng);
        }
        ADD_FAILURE() << "no exception";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), message);
      }
      util::Rng untouched = before;
      EXPECT_TRUE(rng.engine() == untouched.engine()) << "a draw was consumed";
    }
  }
}

/// Sweep: the empirical/analytical agreement must hold for every CLR
/// technique family, not just whatever the random config picked.
class InjectionClrSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InjectionClrSweep, PerConfigAgreement) {
  const auto app = exp::make_synthetic_app(6, 0xFA58);
  dse::MappingProblem problem(app->context(), dse::QosSpec{1e9, 0.0},
                              dse::ObjectiveMode::EnergyQos);
  util::Rng rng(100 + GetParam());
  auto cfg = problem.decode(problem.random_genes(rng));
  // Force the swept CLR configuration onto every task.
  for (auto& a : cfg.tasks) {
    a.clr_index = static_cast<std::uint32_t>(GetParam() % app->clr_space().size());
  }
  MonteCarloValidator validator(app->context());
  const std::size_t runs = 12000;
  const auto agg = validator.run_many(cfg, runs, rng);
  const auto analytical = sched::ListScheduler{}.run(app->context(), cfg);
  for (tg::TaskId t = 0; t < app->graph().num_tasks(); ++t) {
    const double p = analytical.tasks[t].metrics.err_prob;
    const double sigma = std::sqrt(std::max(p * (1 - p), 1e-9) / runs);
    EXPECT_NEAR(agg.task_error_rate[t], p, 4 * sigma + 0.12 * p + 1e-3) << "task " << t;
  }
  EXPECT_NEAR(agg.weighted_success.mean(), analytical.func_rel, 4e-3);
}

INSTANTIATE_TEST_SUITE_P(ClrConfigs, InjectionClrSweep,
                         ::testing::Values(0, 1, 2, 5, 9, 14, 20, 27, 33, 41, 50, 56));

TEST(InjectionStress, HighFaultRateStillBounded) {
  // At extreme fault rates the first-order analytical model drifts, but the
  // simulator must stay well-behaved (probabilities in range, retries
  // bounded by k per task).
  auto app = exp::make_synthetic_app(8, 0xFA59);
  sched::EvalContext ctx = app->context();
  ctx.metrics = rel::MetricsModel(rel::FaultModel{0.5});
  dse::MappingProblem problem(ctx, dse::QosSpec{1e9, 0.0}, dse::ObjectiveMode::EnergyQos);
  util::Rng rng(9);
  const auto cfg = problem.decode(problem.random_genes(rng));
  MonteCarloValidator validator(ctx);
  const auto agg = validator.run_many(cfg, 500, rng);
  for (double rate : agg.task_error_rate) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  EXPECT_GE(agg.weighted_success.mean(), 0.0);
  EXPECT_LE(agg.weighted_success.mean(), 1.0);
  EXPECT_GT(agg.makespan.min(), 0.0);
}

}  // namespace
}  // namespace clr::sim
