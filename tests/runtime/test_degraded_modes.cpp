// Degraded-mode semantics of the fault-aware runtime loop (ISSUE 3): the
// fault-free bit-identity contract, transient recovery accounting, the
// three-tier fallback chain under permanent faults (including the
// zero-alive-PE edge), and fault-stream determinism across thread counts.

#include <gtest/gtest.h>

#include <algorithm>

#include "experiments/runner.hpp"
#include "runtime/simulator.hpp"

namespace clr::rt {
namespace {

dse::DesignPoint make_point(std::vector<plat::PeId> pes, double makespan, double func_rel,
                            double energy) {
  dse::DesignPoint p;
  for (std::size_t t = 0; t < pes.size(); ++t) {
    sched::TaskAssignment a;
    a.pe = pes[t];
    a.priority = static_cast<std::int32_t>(t);
    p.config.tasks.push_back(a);
  }
  p.makespan = makespan;
  p.func_rel = func_rel;
  p.energy = energy;
  return p;
}

/// A narrow QoS box: every sampled spec demands makespan ~[99, 101] and
/// func_rel ~[0.90, 0.92], so feasibility per point is fixed by construction.
dse::MetricRanges narrow_ranges() {
  dse::MetricRanges r;
  r.makespan_min = 99.0;
  r.makespan_max = 101.0;
  r.func_rel_min = 0.90;
  r.func_rel_max = 0.92;
  r.energy_min = 30.0;
  r.energy_max = 40.0;
  return r;
}

/// Two PEs, two points: p0 (PE 0) always feasible and cheapest; p1 (PE 1)
/// always *slightly* infeasible — violation (106-spec)/spec in ~[0.05, 0.07].
dse::DesignDb degraded_db() {
  dse::DesignDb db;
  db.add(make_point({0}, 90.0, 0.99, 30.0));
  db.add(make_point({1}, 106.0, 0.99, 40.0));
  return db;
}

DrcMatrix two_point_drc() { return DrcMatrix(2, {0, 5, 5, 0}); }

void expect_same_stats(const RuntimeStats& a, const RuntimeStats& b) {
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.num_reconfigs, b.num_reconfigs);
  EXPECT_EQ(a.num_infeasible_events, b.num_infeasible_events);
  EXPECT_DOUBLE_EQ(a.avg_energy, b.avg_energy);
  EXPECT_DOUBLE_EQ(a.total_reconfig_cost, b.total_reconfig_cost);
  EXPECT_DOUBLE_EQ(a.max_drc, b.max_drc);
  EXPECT_DOUBLE_EQ(a.qos_violation_time, b.qos_violation_time);
  EXPECT_EQ(a.num_transient_faults, b.num_transient_faults);
  EXPECT_EQ(a.num_recovered_transients, b.num_recovered_transients);
  EXPECT_EQ(a.num_unrecovered_failures, b.num_unrecovered_failures);
  EXPECT_EQ(a.num_permanent_faults, b.num_permanent_faults);
  EXPECT_EQ(a.num_evacuations, b.num_evacuations);
  EXPECT_EQ(a.num_safe_mode_entries, b.num_safe_mode_entries);
  EXPECT_DOUBLE_EQ(a.downtime, b.downtime);
  EXPECT_DOUBLE_EQ(a.availability, b.availability);
  EXPECT_DOUBLE_EQ(a.mttr, b.mttr);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trace[i].time, b.trace[i].time);
    EXPECT_EQ(a.trace[i].point, b.trace[i].point);
    EXPECT_EQ(a.trace[i].fault, b.trace[i].fault);
    EXPECT_EQ(a.trace[i].violation, b.trace[i].violation);
    EXPECT_EQ(a.trace[i].safe_mode, b.trace[i].safe_mode);
  }
}

TEST(FaultFreePath, DisabledScenarioIsBitIdenticalToNoScenario) {
  const auto db = degraded_db();
  const auto drc = two_point_drc();
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 2e4;
  params.trace_events = 100;
  RuntimeSimulator sim(params);

  UraPolicy p1(db, drc, 0.5);
  util::Rng r1(17);
  const auto plain = sim.run(db, p1, qos, r1);

  UraPolicy p2(db, drc, 0.5);
  util::Rng r2(17);
  flt::FaultScenario disabled;  // all rates zero
  disabled.seed = 999;          // must be irrelevant
  const auto gated = sim.run(db, p2, qos, r2, &disabled);

  expect_same_stats(plain, gated);
  EXPECT_DOUBLE_EQ(gated.availability, 1.0);
  EXPECT_DOUBLE_EQ(gated.downtime, 0.0);
  EXPECT_EQ(gated.num_transient_faults, 0u);
}

TEST(FaultFreePath, ViolationTimeAccruesOnInfeasibleEventsWithoutFaults) {
  // A box wider than the database's makespan floor: some specs are tighter
  // than the best stored point, forcing least-violating residence.
  dse::DesignDb db;
  db.add(make_point({0}, 100.0, 0.99, 30.0));
  DrcMatrix drc(1, {0});
  dse::MetricRanges r = narrow_ranges();
  r.makespan_min = 80.0;  // specs in [80, 101]: sometimes < 100 => infeasible
  QosProcess qos(r);
  SimulationParams params;
  params.total_cycles = 5e4;
  RuntimeSimulator sim(params);
  UraPolicy policy(db, drc, 0.5);
  util::Rng rng(23);
  const auto stats = sim.run(db, policy, qos, rng);
  EXPECT_GT(stats.num_infeasible_events, 0u);
  EXPECT_GT(stats.qos_violation_time, 0.0);
  EXPECT_LE(stats.qos_violation_time, stats.total_cycles);
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);  // violations are not downtime
}

TEST(TransientFaults, FullCoverageRecoversEverythingAndChargesLatency) {
  dse::DesignDb db;
  db.add(make_point({0}, 90.0, 0.99, 30.0));
  DrcMatrix drc(1, {0});
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 1e4;
  RuntimeSimulator sim(params);

  flt::FaultScenario scenario;
  scenario.params.transient_rate = 1e-2;  // ~100 arrivals over the horizon
  scenario.params.recovery_latency = 25.0;
  scenario.params.fallback_coverage = 1.0;  // no CLR space: always recover
  scenario.seed = 5;

  UraPolicy policy(db, drc, 0.5);
  util::Rng rng(31);
  const auto stats = sim.run(db, policy, qos, rng, &scenario);

  EXPECT_GT(stats.num_transient_faults, 0u);
  EXPECT_EQ(stats.num_recovered_transients, stats.num_transient_faults);
  EXPECT_EQ(stats.num_unrecovered_failures, 0u);
  EXPECT_DOUBLE_EQ(stats.downtime,
                   25.0 * static_cast<double>(stats.num_recovered_transients));
  EXPECT_DOUBLE_EQ(stats.mttr, 25.0);  // every repair is one recovery latency
  EXPECT_LT(stats.availability, 1.0);
  EXPECT_NEAR(stats.availability, 1.0 - stats.downtime / stats.total_cycles, 1e-12);
  EXPECT_GT(stats.avg_energy, 30.0);  // re-execution premium on a 30-energy point
}

TEST(TransientFaults, ZeroCoverageCountsUnrecoveredFailures) {
  dse::DesignDb db;
  db.add(make_point({0}, 90.0, 0.99, 30.0));
  DrcMatrix drc(1, {0});
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 1e4;
  RuntimeSimulator sim(params);

  flt::FaultScenario scenario;
  scenario.params.transient_rate = 1e-2;
  scenario.params.fallback_coverage = 0.0;  // nothing ever recovers
  scenario.seed = 5;

  UraPolicy policy(db, drc, 0.5);
  util::Rng rng(31);
  const auto stats = sim.run(db, policy, qos, rng, &scenario);

  EXPECT_GT(stats.num_unrecovered_failures, 0u);
  EXPECT_EQ(stats.num_recovered_transients, 0u);
  EXPECT_DOUBLE_EQ(stats.downtime, 0.0);
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
  EXPECT_DOUBLE_EQ(stats.mttr, 0.0);
  EXPECT_DOUBLE_EQ(stats.avg_energy, 30.0);  // no re-execution charged
}

TEST(TransientFaults, OnlyTheActivePointsPesAreHit) {
  dse::DesignDb db;
  db.add(make_point({0}, 90.0, 0.99, 30.0));  // active point lives on PE 0
  DrcMatrix drc(1, {0});
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 1e4;
  RuntimeSimulator sim(params);

  flt::FaultScenario scenario;
  scenario.params.transient_rate = 5e-3;
  scenario.params.fallback_coverage = 1.0;
  scenario.profiles = flt::uniform_profiles(2);
  scenario.profiles[1].ser_scale = 3.0;  // most arrivals strike the idle PE 1
  scenario.seed = 9;

  UraPolicy policy(db, drc, 0.5);
  util::Rng rng(37);
  const auto stats = sim.run(db, policy, qos, rng, &scenario);
  EXPECT_GT(stats.num_transient_faults, 0u);
  // Arrivals on PE 1 are counted but cannot hit the active point.
  EXPECT_LT(stats.num_recovered_transients + stats.num_unrecovered_failures,
            stats.num_transient_faults);
}

TEST(PermanentFaults, FallbackChainEndsInSafeModeWhenEverythingDies) {
  const auto db = degraded_db();
  const auto drc = two_point_drc();
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 2e4;
  params.trace_events = 100000;
  RuntimeSimulator sim(params);

  flt::FaultScenario scenario;
  scenario.params.pe_mtbf = 2e3;  // both PEs die early in the horizon
  scenario.params.qos_tolerance = 0.10;
  scenario.seed = 13;

  UraPolicy policy(db, drc, 1.0);
  util::Rng rng(41);
  const auto stats = sim.run(db, policy, qos, rng, &scenario);

  EXPECT_EQ(stats.num_permanent_faults, 2u);
  EXPECT_EQ(stats.num_safe_mode_entries, 1u);  // entered once, never leavable
  EXPECT_LT(stats.availability, 1.0);
  EXPECT_GT(stats.downtime, 0.0);
  EXPECT_GT(stats.qos_violation_time, 0.0);  // safe mode violates by definition

  // The trace records the permanent faults and ends in safe mode.
  const auto permanents = std::count_if(
      stats.trace.begin(), stats.trace.end(),
      [](const EventRecord& e) { return e.fault == flt::FaultKind::Permanent; });
  EXPECT_EQ(permanents, 2);
  ASSERT_FALSE(stats.trace.empty());
  EXPECT_TRUE(stats.trace.back().safe_mode);
  EXPECT_TRUE(stats.trace.back().violation);
}

TEST(PermanentFaults, RelaxedQosTierAdoptsTheToleratedPoint) {
  // Seed chosen so PE 0 (the active point's) dies first: the chain must pass
  // through tier 2 — p1 violates every spec by ~5-7%, within the 10% band.
  const auto db = degraded_db();
  const auto drc = two_point_drc();
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 2e4;
  params.trace_events = 100000;
  RuntimeSimulator sim(params);

  flt::FaultScenario scenario;
  scenario.params.pe_mtbf = 2e3;
  scenario.params.qos_tolerance = 0.10;
  scenario.seed = 0;  // this fault stream retires PE 0 (~cycle 942) well before PE 1

  UraPolicy policy(db, drc, 1.0);
  util::Rng rng(41);
  const auto tolerant = sim.run(db, policy, qos, rng, &scenario);

  // Same timeline with a zero band: tier 2 is off the table, so every
  // evacuation the tolerant run performed becomes a safe-mode drop.
  flt::FaultScenario strict = scenario;
  strict.params.qos_tolerance = 0.0;
  UraPolicy policy2(db, drc, 1.0);
  util::Rng rng2(41);
  const auto unforgiving = sim.run(db, policy2, qos, rng2, &strict);

  EXPECT_GE(tolerant.num_evacuations, 1u);  // tier-2 adoption happened
  EXPECT_EQ(unforgiving.num_evacuations, 0u);
  EXPECT_GE(unforgiving.num_safe_mode_entries, 1u);
  EXPECT_GE(unforgiving.num_safe_mode_entries, tolerant.num_safe_mode_entries);
  EXPECT_LE(unforgiving.availability, tolerant.availability);
}

TEST(PermanentFaults, ZeroAlivePesRunsToCompletionInSafeMode) {
  dse::DesignDb db;
  db.add(make_point({0}, 90.0, 0.99, 30.0));  // single point, single PE
  DrcMatrix drc(1, {0});
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 1e4;
  RuntimeSimulator sim(params);

  flt::FaultScenario scenario;
  scenario.params.pe_mtbf = 100.0;  // the lone PE dies almost immediately
  scenario.seed = 3;

  UraPolicy policy(db, drc, 0.5);
  util::Rng rng(7);
  const auto stats = sim.run(db, policy, qos, rng, &scenario);

  EXPECT_EQ(stats.num_permanent_faults, 1u);
  EXPECT_EQ(stats.num_evacuations, 0u);
  EXPECT_EQ(stats.num_safe_mode_entries, 1u);
  EXPECT_LT(stats.availability, 1.0);
  EXPECT_GT(stats.downtime, 0.0);
  // Downtime is (at least) the whole post-fault remainder of the run.
  EXPECT_GT(stats.downtime, 0.5 * stats.total_cycles);
}

TEST(FaultDeterminism, SameSeedSameTimelineStatsAndTrace) {
  const auto db = degraded_db();
  const auto drc = two_point_drc();
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 2e4;
  params.trace_events = 100000;
  RuntimeSimulator sim(params);

  flt::FaultScenario scenario;
  scenario.params.transient_rate = 1e-3;
  scenario.params.pe_mtbf = 8e3;
  scenario.params.fallback_coverage = 0.7;
  scenario.seed = 21;

  UraPolicy p1(db, drc, 0.5);
  UraPolicy p2(db, drc, 0.5);
  util::Rng r1(55), r2(55);
  const auto a = sim.run(db, p1, qos, r1, &scenario);
  const auto b = sim.run(db, p2, qos, r2, &scenario);
  expect_same_stats(a, b);
}

TEST(FaultDeterminism, RunnerGridIsIdenticalAtAnyJobCount) {
  const auto db = degraded_db();
  const auto drc = two_point_drc();

  const auto run_grid = [&](std::size_t jobs) {
    exp::RunnerConfig config;
    config.replications = 3;
    config.jobs = jobs;
    config.keep_runs = true;
    exp::Runner runner(config);
    for (const auto kind : {exp::PolicyKind::Ura, exp::PolicyKind::Aura}) {
      exp::RunnerCell cell;
      cell.db = &db;
      cell.drc = &drc;
      cell.ranges = narrow_ranges();
      cell.params.kind = kind;
      cell.params.p_rc = 0.5;
      cell.params.sim.total_cycles = 1e4;
      cell.params.faults.transient_rate = 1e-3;
      cell.params.faults.pe_mtbf = 8e3;
      cell.params.faults.fallback_coverage = 0.6;
      cell.seed = 77;
      runner.add_cell(std::move(cell));
    }
    return runner.run();
  };

  const auto serial = run_grid(1);
  const auto parallel = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    ASSERT_EQ(serial[c].runs.size(), parallel[c].runs.size());
    for (std::size_t r = 0; r < serial[c].runs.size(); ++r) {
      expect_same_stats(serial[c].runs[r], parallel[c].runs[r]);
    }
    EXPECT_DOUBLE_EQ(serial[c].stats.availability.mean, parallel[c].stats.availability.mean);
    EXPECT_DOUBLE_EQ(serial[c].stats.mttr.mean, parallel[c].stats.mttr.mean);
    EXPECT_DOUBLE_EQ(serial[c].stats.downtime.mean, parallel[c].stats.downtime.mean);
  }
}

TEST(FaultTrace, CsvCarriesFaultAndViolationColumns) {
  const auto db = degraded_db();
  const auto drc = two_point_drc();
  QosProcess qos(narrow_ranges());
  SimulationParams params;
  params.total_cycles = 2e4;
  params.trace_events = 100000;
  RuntimeSimulator sim(params);

  flt::FaultScenario scenario;
  scenario.params.transient_rate = 2e-3;
  scenario.params.pe_mtbf = 5e3;
  scenario.params.fallback_coverage = 0.5;
  scenario.seed = 19;

  UraPolicy policy(db, drc, 0.5);
  util::Rng rng(61);
  const auto stats = sim.run(db, policy, qos, rng, &scenario);

  bool saw_transient = false, saw_permanent = false;
  for (const auto& ev : stats.trace) {
    saw_transient = saw_transient || ev.fault == flt::FaultKind::Transient;
    saw_permanent = saw_permanent || ev.fault == flt::FaultKind::Permanent;
  }
  EXPECT_TRUE(saw_transient);
  EXPECT_TRUE(saw_permanent);
}

}  // namespace
}  // namespace clr::rt
