#include "schedule/heft.hpp"

#include <gtest/gtest.h>

#include "dse/mapping_problem.hpp"
#include "experiments/app.hpp"
#include "validate_schedule.hpp"

namespace clr::sched {
namespace {

TEST(UpwardRanks, ChainRanksDecreaseDownstream) {
  const auto app = exp::make_synthetic_app(10, 333);
  const auto ranks = upward_ranks(app->context());
  const auto& g = app->graph();
  for (const auto& e : g.edges()) {
    EXPECT_GT(ranks[e.src], ranks[e.dst]);  // a predecessor outranks its successor
  }
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_GE(ranks[t], mean_execution_time(app->context(), t) - 1e-12);
  }
}

TEST(UpwardRanks, SinkRankEqualsOwnMeanExecution) {
  const auto app = exp::make_synthetic_app(10, 333);
  const auto ranks = upward_ranks(app->context());
  for (tg::TaskId t : app->graph().sinks()) {
    EXPECT_NEAR(ranks[t], mean_execution_time(app->context(), t), 1e-12);
  }
}

TEST(HeftSeed, ProducesValidSchedulableConfiguration) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto app = exp::make_synthetic_app(20, seed);
    const auto cfg = heft_seed(app->context());
    ListScheduler sched;
    const auto res = sched.run(app->context(), cfg);  // throws if invalid
    EXPECT_EQ(validate_schedule(app->context(), cfg, res), "");
    // Unprotected CLR everywhere.
    for (const auto& a : cfg.tasks) EXPECT_EQ(a.clr_index, 0u);
  }
}

TEST(HeftSeed, BeatsRandomMappingsOnMakespan) {
  const auto app = exp::make_synthetic_app(30, 555);
  dse::MappingProblem problem(app->context(), dse::QosSpec{1e9, 0.0},
                              dse::ObjectiveMode::EnergyQos);
  ListScheduler sched;
  const auto heft_cfg = heft_seed(app->context());
  const double heft_makespan = sched.run(app->context(), heft_cfg).makespan;

  util::Rng rng(9);
  double random_sum = 0.0;
  const int trials = 30;
  for (int i = 0; i < trials; ++i) {
    auto cfg = problem.decode(problem.random_genes(rng));
    for (auto& a : cfg.tasks) a.clr_index = 0;  // fair: unprotected too
    random_sum += sched.run(app->context(), cfg).makespan;
  }
  EXPECT_LT(heft_makespan, random_sum / trials);
}

TEST(HeftSeed, EncodableIntoTheMappingProblem) {
  const auto app = exp::make_synthetic_app(15, 777);
  dse::MappingProblem problem(app->context(), dse::QosSpec{1e9, 0.0},
                              dse::ObjectiveMode::EnergyQos);
  const auto cfg = heft_seed(app->context());
  std::vector<int> genes;
  EXPECT_NO_THROW(genes = problem.encode(cfg));
  const auto roundtrip = problem.decode(genes);
  // PE bindings and implementations survive the encode/decode round trip
  // (priorities are clamped to [0, T), which HEFT respects by construction).
  for (tg::TaskId t = 0; t < app->graph().num_tasks(); ++t) {
    EXPECT_EQ(roundtrip[t].pe, cfg[t].pe);
    EXPECT_EQ(roundtrip[t].impl_index, cfg[t].impl_index);
    EXPECT_EQ(roundtrip[t].priority, cfg[t].priority);
  }
}

TEST(HeftSeed, Deterministic) {
  const auto app = exp::make_synthetic_app(25, 999);
  const auto a = heft_seed(app->context());
  const auto b = heft_seed(app->context());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace clr::sched
