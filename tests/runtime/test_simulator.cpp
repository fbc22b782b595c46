#include "runtime/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace clr::rt {
namespace {

dse::DesignDb make_db() {
  dse::DesignDb db;
  auto add = [&](double s, double f, double j, int tag) {
    dse::DesignPoint p;
    p.makespan = s;
    p.func_rel = f;
    p.energy = j;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = tag;
    db.add(p);
  };
  add(100, 0.95, 50, 0);
  add(120, 0.99, 80, 1);
  add(80, 0.92, 30, 2);
  return db;
}

DrcMatrix make_drc() {
  return DrcMatrix(3, {0, 10, 2,
                       10, 0, 10,
                       2, 10, 0});
}

dse::MetricRanges make_ranges() {
  dse::MetricRanges r;
  r.makespan_min = 80.0;
  r.makespan_max = 120.0;
  r.func_rel_min = 0.92;
  r.func_rel_max = 0.99;
  r.energy_min = 30.0;
  r.energy_max = 80.0;
  return r;
}

class SimulatorTest : public ::testing::Test {
 protected:
  dse::DesignDb db_ = make_db();
  DrcMatrix drc_ = make_drc();
  dse::MetricRanges ranges_ = make_ranges();
};

TEST_F(SimulatorTest, EnergyIsWithinDatabaseBounds) {
  QosProcess qos(ranges_);
  UraPolicy policy(db_, drc_, 0.5);
  SimulationParams params;
  params.total_cycles = 5e4;
  RuntimeSimulator sim(params);
  util::Rng rng(1);
  const auto stats = sim.run(db_, policy, qos, rng);
  EXPECT_GE(stats.avg_energy, 30.0);
  EXPECT_LE(stats.avg_energy, 80.0);
  EXPECT_DOUBLE_EQ(stats.total_cycles, 5e4);
}

TEST_F(SimulatorTest, EventCountMatchesExponentialRate) {
  QosProcess qos(ranges_);  // mean gap 100
  UraPolicy policy(db_, drc_, 0.5);
  SimulationParams params;
  params.total_cycles = 2e5;
  RuntimeSimulator sim(params);
  util::Rng rng(2);
  const auto stats = sim.run(db_, policy, qos, rng);
  // ~2000 events expected; Poisson sd ~45.
  EXPECT_GT(stats.num_events, 1800u);
  EXPECT_LT(stats.num_events, 2200u);
}

TEST_F(SimulatorTest, DeterministicPerSeed) {
  QosProcess qos(ranges_);
  SimulationParams params;
  params.total_cycles = 3e4;
  RuntimeSimulator sim(params);
  UraPolicy p1(db_, drc_, 0.5);
  UraPolicy p2(db_, drc_, 0.5);
  util::Rng a(3), b(3);
  const auto sa = sim.run(db_, p1, qos, a);
  const auto sb = sim.run(db_, p2, qos, b);
  EXPECT_EQ(sa.num_events, sb.num_events);
  EXPECT_EQ(sa.num_reconfigs, sb.num_reconfigs);
  EXPECT_DOUBLE_EQ(sa.avg_energy, sb.avg_energy);
  EXPECT_DOUBLE_EQ(sa.total_reconfig_cost, sb.total_reconfig_cost);
}

TEST_F(SimulatorTest, TraceRecordsFirstEvents) {
  QosProcess qos(ranges_);
  UraPolicy policy(db_, drc_, 0.5);
  SimulationParams params;
  params.total_cycles = 5e4;
  params.trace_events = 50;
  RuntimeSimulator sim(params);
  util::Rng rng(4);
  const auto stats = sim.run(db_, policy, qos, rng);
  ASSERT_EQ(stats.trace.size(), 50u);
  double prev = -1.0;
  for (const auto& ev : stats.trace) {
    EXPECT_GT(ev.time, prev);
    prev = ev.time;
    EXPECT_LT(ev.point, db_.size());
    if (!ev.reconfigured) EXPECT_DOUBLE_EQ(ev.drc, 0.0);
  }
}

TEST_F(SimulatorTest, AccountingIdentitiesHold) {
  QosProcess qos(ranges_);
  UraPolicy policy(db_, drc_, 1.0);
  SimulationParams params;
  params.total_cycles = 5e4;
  params.trace_events = 1000000;  // trace everything
  RuntimeSimulator sim(params);
  util::Rng rng(5);
  const auto stats = sim.run(db_, policy, qos, rng);
  ASSERT_EQ(stats.trace.size(), stats.num_events);
  double total_cost = 0.0;
  std::size_t reconfigs = 0;
  double max_drc = 0.0;
  for (const auto& ev : stats.trace) {
    total_cost += ev.drc;
    if (ev.reconfigured) ++reconfigs;
    max_drc = std::max(max_drc, ev.drc);
  }
  EXPECT_DOUBLE_EQ(total_cost, stats.total_reconfig_cost);
  EXPECT_EQ(reconfigs, stats.num_reconfigs);
  EXPECT_DOUBLE_EQ(max_drc, stats.max_drc);
  EXPECT_NEAR(stats.avg_reconfig_cost,
              stats.total_reconfig_cost / static_cast<double>(stats.num_events), 1e-12);
}

TEST_F(SimulatorTest, PrcZeroReconfiguresLessThanPrcOne) {
  QosProcess qos(ranges_);
  SimulationParams params;
  params.total_cycles = 1e5;
  RuntimeSimulator sim(params);
  UraPolicy sticky(db_, drc_, 0.0);
  UraPolicy greedy(db_, drc_, 1.0);
  util::Rng a(6), b(6);
  const auto s_sticky = sim.run(db_, sticky, qos, a);
  const auto s_greedy = sim.run(db_, greedy, qos, b);
  EXPECT_LE(s_sticky.total_reconfig_cost, s_greedy.total_reconfig_cost);
  // And the greedy policy buys at-least-as-good energy.
  EXPECT_LE(s_greedy.avg_energy, s_sticky.avg_energy + 1e-9);
}

TEST_F(SimulatorTest, AuraLearnsDuringSimulation) {
  QosProcess qos(ranges_);
  AuraPolicy policy(db_, drc_, 0.5);
  SimulationParams params;
  params.total_cycles = 5e4;
  RuntimeSimulator sim(params);
  util::Rng rng(7);
  sim.run(db_, policy, qos, rng);
  bool any_nonzero = false;
  for (double v : policy.values()) any_nonzero |= v != 0.0;
  EXPECT_TRUE(any_nonzero);
}

TEST_F(SimulatorTest, PretrainFreezesLearning) {
  QosProcess qos(ranges_);
  AuraPolicy policy(db_, drc_, 0.5);
  util::Rng rng(8);
  const auto values = pretrain_aura(policy, db_, qos, 1e4, 3, rng);
  EXPECT_EQ(values, policy.values());
  // Further simulation must not change values any more.
  SimulationParams params;
  params.total_cycles = 1e4;
  RuntimeSimulator sim(params);
  sim.run(db_, policy, qos, rng);
  EXPECT_EQ(policy.values(), values);
}

TEST_F(SimulatorTest, RejectsBadInputs) {
  QosProcess qos(ranges_);
  UraPolicy policy(db_, drc_, 0.5);
  SimulationParams params;
  params.total_cycles = 0.0;
  RuntimeSimulator sim(params);
  util::Rng rng(9);
  EXPECT_THROW(sim.run(db_, policy, qos, rng), std::invalid_argument);
  dse::DesignDb empty;
  RuntimeSimulator ok{};
  EXPECT_THROW(ok.run(empty, policy, qos, rng), std::invalid_argument);
}

TEST_F(SimulatorTest, InfeasibleEventsAreCounted) {
  // Shrink the feasible region: a QoS process biased to demand F near the
  // top of a range that only point 1 (sometimes nobody) satisfies.
  dse::MetricRanges tight = ranges_;
  tight.func_rel_min = 0.995;  // above every stored point
  tight.func_rel_max = 0.999;
  QosProcess qos(tight);
  UraPolicy policy(db_, drc_, 0.5);
  SimulationParams params;
  params.total_cycles = 2e4;
  RuntimeSimulator sim(params);
  util::Rng rng(10);
  const auto stats = sim.run(db_, policy, qos, rng);
  EXPECT_EQ(stats.num_infeasible_events, stats.num_events);
  EXPECT_GT(stats.num_events, 0u);
}

TEST_F(SimulatorTest, InitialPlacementIsNotLearnedFrom) {
  // Regression: the t=0 placement is free (the hint point was never occupied,
  // so no dRC was paid) and must not enter AuRA's episode. With the event gap
  // pushed past the horizon the run sees *only* the initial placement; after
  // it, every value and visit count must still be zero.
  QosProcessParams qos_params;
  qos_params.mean_event_gap = 1e9;  // no QoS-change events within the horizon
  QosProcess qos(ranges_, qos_params);
  AuraPolicy policy(db_, drc_, 0.5);
  SimulationParams params;
  params.total_cycles = 1e4;
  RuntimeSimulator sim(params);
  util::Rng rng(12);
  const auto stats = sim.run(db_, policy, qos, rng);
  ASSERT_EQ(stats.num_events, 0u);
  for (double v : policy.values()) EXPECT_DOUBLE_EQ(v, 0.0);
  for (std::size_t c : policy.visit_counts()) EXPECT_EQ(c, 0u);
}

TEST_F(SimulatorTest, CoincidentEpisodeAndEventProcessedOnce) {
  // Force now == next_episode == next_event at the first event and check the
  // event is neither dropped nor double-processed: a stateless (uRA) policy
  // must produce bit-identical stats whether or not episode boundaries land
  // exactly on event times (episode boundaries consume no randomness).
  QosProcess qos(ranges_);
  SimulationParams probe_params;
  probe_params.total_cycles = 5e4;
  probe_params.trace_events = 1;
  probe_params.episode_cycles = 1e18;  // no mid-run episodes
  RuntimeSimulator probe_sim(probe_params);
  UraPolicy probe_policy(db_, drc_, 0.5);
  util::Rng probe_rng(13);
  const auto probe = probe_sim.run(db_, probe_policy, qos, probe_rng);
  ASSERT_FALSE(probe.trace.empty());
  const double first_event_time = probe.trace[0].time;

  SimulationParams coincident_params = probe_params;
  coincident_params.trace_events = 1000000;
  coincident_params.episode_cycles = first_event_time;  // boundary ON the event
  RuntimeSimulator coincident_sim(coincident_params);
  UraPolicy p1(db_, drc_, 0.5);
  util::Rng rng1(13);
  const auto with_coincidence = coincident_sim.run(db_, p1, qos, rng1);

  SimulationParams control_params = coincident_params;
  control_params.episode_cycles = 1e18;
  RuntimeSimulator control_sim(control_params);
  UraPolicy p2(db_, drc_, 0.5);
  util::Rng rng2(13);
  const auto control = control_sim.run(db_, p2, qos, rng2);

  EXPECT_EQ(with_coincidence.num_events, control.num_events);
  EXPECT_EQ(with_coincidence.num_reconfigs, control.num_reconfigs);
  // Episode boundaries split the energy-integration interval, so the sum is
  // reassociated — everything else must be exact.
  EXPECT_NEAR(with_coincidence.avg_energy, control.avg_energy,
              1e-9 * control.avg_energy);
  EXPECT_DOUBLE_EQ(with_coincidence.total_reconfig_cost, control.total_reconfig_cost);
  ASSERT_EQ(with_coincidence.trace.size(), control.trace.size());
  for (std::size_t i = 0; i < control.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_coincidence.trace[i].time, control.trace[i].time);
    EXPECT_EQ(with_coincidence.trace[i].point, control.trace[i].point);
  }
}

TEST_F(SimulatorTest, SimulatorAndQosProcessReuseLeaksNoStateAcrossRuns) {
  // The fleet pipeline constructs ONE QosProcess + RuntimeSimulator per
  // worker and reuses them for every device (DESIGN.md §5.13). That is only
  // sound if run() is a pure function of (db, policy, rng, scenario) — all
  // mutable evaluation state must live inside the call. Interleave seeds
  // A, B, A on one shared plant and compare run 1 vs run 3 bitwise, then
  // compare both against a factory-fresh plant.
  SimulationParams params;
  params.total_cycles = 2e4;
  const RuntimeSimulator shared_sim(params);
  const QosProcess shared_qos(ranges_);

  const auto run_with = [&](const RuntimeSimulator& sim, const QosProcess& qos,
                            std::uint64_t seed) {
    UraPolicy policy(db_, drc_, 0.5);  // policies are per-device in the fleet too
    util::Rng rng(seed);
    return sim.run(db_, policy, qos, rng);
  };

  const auto first = run_with(shared_sim, shared_qos, 101);
  const auto other = run_with(shared_sim, shared_qos, 202);
  const auto again = run_with(shared_sim, shared_qos, 101);

  EXPECT_EQ(first.num_events, again.num_events);
  EXPECT_EQ(first.num_reconfigs, again.num_reconfigs);
  EXPECT_EQ(first.num_infeasible_events, again.num_infeasible_events);
  EXPECT_EQ(first.avg_energy, again.avg_energy);
  EXPECT_EQ(first.total_reconfig_cost, again.total_reconfig_cost);
  EXPECT_EQ(first.qos_violation_time, again.qos_violation_time);
  EXPECT_EQ(first.availability, again.availability);
  EXPECT_EQ(first.max_drc, again.max_drc);
  // The interleaved run actually differed (the check above is not vacuous).
  // A continuous metric cannot collide across seeds the way a count could.
  EXPECT_NE(first.qos_violation_time, other.qos_violation_time);

  const RuntimeSimulator fresh_sim(params);
  const QosProcess fresh_qos(ranges_);
  const auto pristine = run_with(fresh_sim, fresh_qos, 101);
  EXPECT_EQ(first.num_events, pristine.num_events);
  EXPECT_EQ(first.avg_energy, pristine.avg_energy);
  EXPECT_EQ(first.qos_violation_time, pristine.qos_violation_time);
  EXPECT_EQ(first.max_drc, pristine.max_drc);
}

}  // namespace
}  // namespace clr::rt
