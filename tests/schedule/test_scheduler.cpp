#include "schedule/scheduler.hpp"

#include <gtest/gtest.h>

#include "platform/platform.hpp"
#include "reliability/clr_config.hpp"
#include "reliability/implementation.hpp"
#include "taskgraph/generator.hpp"
#include "validate_schedule.hpp"

namespace clr::sched {
namespace {

/// Two-PE homogeneous fixture with hand-authored implementations so expected
/// schedules can be computed by hand (lambda_seu = 0 keeps AvgExT == MinExT).
class HandScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plat::PeType t;
    t.perf_factor = 1.0;
    t.power_factor = 1.0;
    t.avf = 0.5;
    const auto tid = hw_.add_pe_type(t);
    hw_.add_pe(tid);
    hw_.add_pe(tid);

    ctx_.graph = &graph_;
    ctx_.platform = &hw_;
    ctx_.impls = &impls_;
    ctx_.clr_space = &clr_;
    ctx_.metrics = rel::MetricsModel(rel::FaultModel{0.0});
  }

  void add_task(double time, double power = 1.0, double criticality = 1.0) {
    graph_.add_task(0, criticality);
    impls_.resize(graph_.num_tasks());
    rel::Implementation impl;
    impl.pe_type = 0;
    impl.base_time = time;
    impl.base_power = power;
    impls_.add(static_cast<tg::TaskId>(graph_.num_tasks() - 1), impl);
  }

  Configuration config_all(plat::PeId pe) const {
    Configuration cfg;
    cfg.tasks.assign(graph_.num_tasks(), TaskAssignment{pe, 0, 0, 0});
    return cfg;
  }

  tg::TaskGraph graph_;
  plat::Platform hw_;
  rel::ImplementationSet impls_;
  rel::ClrSpace clr_{rel::ClrGranularity::HwOnly};
  EvalContext ctx_;
  ListScheduler sched_;
};

TEST_F(HandScheduleTest, SingleTask) {
  add_task(10.0, 2.0);
  const auto res = sched_.run(ctx_, config_all(0));
  EXPECT_DOUBLE_EQ(res.makespan, 10.0);
  EXPECT_DOUBLE_EQ(res.energy, 20.0);
  EXPECT_DOUBLE_EQ(res.peak_power, 2.0);
  EXPECT_DOUBLE_EQ(res.func_rel, 1.0);  // lambda = 0
}

TEST_F(HandScheduleTest, ChainOnSamePeSkipsCommTime) {
  add_task(10.0);
  add_task(5.0);
  graph_.add_edge(0, 1, 7.0, 100);
  const auto res = sched_.run(ctx_, config_all(0));
  EXPECT_DOUBLE_EQ(res.makespan, 15.0);  // no comm cost on the same PE
}

TEST_F(HandScheduleTest, ChainAcrossPesPaysCommTime) {
  add_task(10.0);
  add_task(5.0);
  graph_.add_edge(0, 1, 7.0, 100);
  Configuration cfg = config_all(0);
  cfg[1].pe = 1;
  const auto res = sched_.run(ctx_, cfg);
  EXPECT_DOUBLE_EQ(res.makespan, 22.0);  // 10 + 7 + 5
}

TEST_F(HandScheduleTest, IndependentTasksOverlapOnDifferentPes) {
  add_task(10.0, 1.0);
  add_task(10.0, 2.0);
  Configuration cfg = config_all(0);
  cfg[1].pe = 1;
  const auto res = sched_.run(ctx_, cfg);
  EXPECT_DOUBLE_EQ(res.makespan, 10.0);
  EXPECT_DOUBLE_EQ(res.peak_power, 3.0);  // both run simultaneously
  EXPECT_DOUBLE_EQ(res.energy, 30.0);
}

TEST_F(HandScheduleTest, IndependentTasksSerializeOnSamePe) {
  add_task(10.0, 1.0);
  add_task(10.0, 2.0);
  const auto res = sched_.run(ctx_, config_all(0));
  EXPECT_DOUBLE_EQ(res.makespan, 20.0);
  EXPECT_DOUBLE_EQ(res.peak_power, 2.0);  // never simultaneous
}

TEST_F(HandScheduleTest, PriorityOrdersReadyTasks) {
  add_task(10.0);
  add_task(4.0);
  add_task(6.0);
  // Tasks 1 and 2 are independent of 0; all on PE 0. Higher priority first.
  Configuration cfg = config_all(0);
  cfg[0].priority = 0;
  cfg[1].priority = 5;
  cfg[2].priority = 9;
  const auto res = sched_.run(ctx_, cfg);
  // Order: task 2 (prio 9), task 1 (prio 5), task 0 (prio 0).
  EXPECT_DOUBLE_EQ(res.tasks[2].start, 0.0);
  EXPECT_DOUBLE_EQ(res.tasks[1].start, 6.0);
  EXPECT_DOUBLE_EQ(res.tasks[0].start, 10.0);
}

TEST_F(HandScheduleTest, EqualPriorityBreaksTiesByTaskId) {
  add_task(3.0);
  add_task(3.0);
  const auto res = sched_.run(ctx_, config_all(0));
  EXPECT_DOUBLE_EQ(res.tasks[0].start, 0.0);
  EXPECT_DOUBLE_EQ(res.tasks[1].start, 3.0);
}

TEST_F(HandScheduleTest, FunctionalReliabilityWeightsByCriticality) {
  // Re-enable faults; two tasks with different criticalities.
  ctx_.metrics = rel::MetricsModel(rel::FaultModel{0.05});
  add_task(10.0, 1.0, 3.0);
  add_task(10.0, 1.0, 1.0);
  const auto res = sched_.run(ctx_, config_all(0));
  const double p = res.tasks[0].metrics.err_prob;  // same for both tasks
  EXPECT_NEAR(res.func_rel, (1.0 - p) * 0.75 + (1.0 - p) * 0.25, 1e-12);
  EXPECT_LT(res.func_rel, 1.0);
}

TEST_F(HandScheduleTest, ValidationCatchesSizeMismatch) {
  add_task(1.0);
  Configuration cfg;  // empty
  EXPECT_THROW(sched_.run(ctx_, cfg), std::invalid_argument);
}

TEST_F(HandScheduleTest, ValidationCatchesBadIndices) {
  add_task(1.0);
  auto cfg = config_all(0);
  cfg[0].pe = 99;
  EXPECT_THROW(sched_.run(ctx_, cfg), std::invalid_argument);
  cfg = config_all(0);
  cfg[0].impl_index = 42;
  EXPECT_THROW(sched_.run(ctx_, cfg), std::invalid_argument);
  cfg = config_all(0);
  cfg[0].clr_index = 1000;
  EXPECT_THROW(sched_.run(ctx_, cfg), std::invalid_argument);
}

TEST_F(HandScheduleTest, ClrConfigChangesMetrics) {
  ctx_.metrics = rel::MetricsModel(rel::FaultModel{0.05});
  add_task(10.0);
  auto plain = config_all(0);
  auto protected_cfg = config_all(0);
  protected_cfg[0].clr_index = 2;  // HwOnly space: partial TMR
  const auto res_plain = sched_.run(ctx_, plain);
  const auto res_prot = sched_.run(ctx_, protected_cfg);
  EXPECT_GT(res_prot.func_rel, res_plain.func_rel);
  EXPECT_GT(res_prot.energy, res_plain.energy);
}

/// Property tests on generated applications: schedules must always validate.
class ScheduleProperty : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ScheduleProperty, RandomConfigurationsProduceValidSchedules) {
  const auto [num_tasks, seed] = GetParam();
  tg::GeneratorParams gp;
  gp.num_tasks = num_tasks;
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + num_tasks);
  const auto graph = tg::TgffGenerator(gp).generate(rng);
  const auto hw = plat::make_default_hmpsoc();
  const auto impls = rel::generate_implementations(graph, hw, rel::ImplGenParams{}, rng);
  const rel::ClrSpace clr(rel::ClrGranularity::Full);

  EvalContext ctx;
  ctx.graph = &graph;
  ctx.platform = &hw;
  ctx.impls = &impls;
  ctx.clr_space = &clr;

  ListScheduler sched;
  for (int trial = 0; trial < 10; ++trial) {
    // Build a random valid configuration (PE choice restricted to types with
    // a compatible implementation).
    Configuration cfg;
    cfg.tasks.resize(graph.num_tasks());
    for (tg::TaskId t = 0; t < graph.num_tasks(); ++t) {
      std::vector<std::pair<plat::PeId, std::size_t>> choices;
      for (const auto& pe : hw.pes()) {
        for (std::size_t i : impls.compatible_with(t, pe.type)) choices.emplace_back(pe.id, i);
      }
      const auto [pe, impl] = choices[rng.index(choices.size())];
      cfg[t] = TaskAssignment{pe, static_cast<std::uint32_t>(impl),
                              static_cast<std::uint32_t>(rng.index(clr.size())),
                              rng.uniform_int(0, static_cast<int>(graph.num_tasks()) - 1)};
    }
    const auto res = sched.run(ctx, cfg);
    EXPECT_EQ(validate_schedule(ctx, cfg, res), "");
    // Makespan is bounded below by the critical path of average times.
    std::vector<double> costs(graph.num_tasks());
    for (tg::TaskId t = 0; t < graph.num_tasks(); ++t) costs[t] = res.tasks[t].metrics.avg_ext;
    EXPECT_GE(res.makespan + 1e-9, graph.critical_path_length(costs));
    EXPECT_GT(res.energy, 0.0);
    EXPECT_GT(res.peak_power, 0.0);
    EXPECT_GT(res.func_rel, 0.0);
    EXPECT_LE(res.func_rel, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleProperty,
                         ::testing::Combine(::testing::Values(5, 10, 20, 40, 80),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace clr::sched
