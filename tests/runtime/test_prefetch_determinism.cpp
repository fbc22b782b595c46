// Prefetch transparency + reconfiguration-port accounting (DESIGN.md §5.14).
//
// The load-bearing contract: wrapping any policy in rt::PrefetchPolicy NEVER
// changes which points are picked — speculation may only re-split
// total_reconfig_cost into stalled and hidden time. That makes the strongest
// possible differential test available: every pre-existing RuntimeStats
// field must be bit-identical with prefetch on and off, across policy kinds,
// seeds and fault regimes, while the port invariant
//
//   total_reconfig_cost == reconfig_stall_time + prefetch_hidden_time
//
// holds on both sides (with hidden == 0 exactly when prefetch is off).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "experiments/flow.hpp"
#include "runtime/prefetch.hpp"
#include "sim/icap.hpp"

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

/// Every RuntimeStats field that existed before the reconfiguration-port
/// model. Bit-exact equality — EXPECT_EQ on doubles, not EXPECT_NEAR.
void expect_pre_port_fields_identical(const RuntimeStats& a, const RuntimeStats& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.num_reconfigs, b.num_reconfigs);
  EXPECT_EQ(a.num_infeasible_events, b.num_infeasible_events);
  EXPECT_EQ(a.avg_energy, b.avg_energy);
  EXPECT_EQ(a.total_reconfig_cost, b.total_reconfig_cost);
  EXPECT_EQ(a.avg_reconfig_cost, b.avg_reconfig_cost);
  EXPECT_EQ(a.max_drc, b.max_drc);
  EXPECT_EQ(a.qos_violation_time, b.qos_violation_time);
  EXPECT_EQ(a.num_transient_faults, b.num_transient_faults);
  EXPECT_EQ(a.num_recovered_transients, b.num_recovered_transients);
  EXPECT_EQ(a.num_unrecovered_failures, b.num_unrecovered_failures);
  EXPECT_EQ(a.num_permanent_faults, b.num_permanent_faults);
  EXPECT_EQ(a.num_evacuations, b.num_evacuations);
  EXPECT_EQ(a.num_safe_mode_entries, b.num_safe_mode_entries);
  EXPECT_EQ(a.downtime, b.downtime);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.mttr, b.mttr);
}

void expect_port_invariant(const RuntimeStats& s) {
  // The split must reassemble the folded cost exactly: both sides accumulate
  // the same addends in the same order.
  EXPECT_EQ(s.reconfig_stall_time + s.prefetch_hidden_time, s.total_reconfig_cost);
  EXPECT_GE(s.reconfig_stall_time, 0.0);
  EXPECT_GE(s.prefetch_hidden_time, 0.0);
  const double expected_availability =
      std::clamp(1.0 - (s.downtime + s.reconfig_stall_time) / s.total_cycles, 0.0, 1.0);
  EXPECT_EQ(s.service_availability, expected_availability);
}

// --- IcapPort unit contract ---

TEST(IcapPort, StagedProgressIsHiddenCappedByRealDuration) {
  sim::IcapPort port;
  port.stage(/*target=*/1, /*duration=*/10.0, /*now=*/100.0);
  // 6 cycles later the staged load has 6 cycles of progress.
  const auto c = port.consume(1, 10.0, 106.0);
  EXPECT_TRUE(c.hit);
  EXPECT_DOUBLE_EQ(c.hidden, 6.0);
  EXPECT_FALSE(port.has_staged());
}

TEST(IcapPort, FullyLoadedStageHidesTheWholeReconfiguration) {
  sim::IcapPort port;
  port.stage(2, 10.0, 0.0);
  const auto c = port.consume(2, 10.0, 50.0);
  EXPECT_TRUE(c.hit);
  EXPECT_DOUBLE_EQ(c.hidden, 10.0);
}

TEST(IcapPort, MispredictionYieldsNoCreditAndCancelsTheStage) {
  sim::IcapPort port;
  port.stage(1, 10.0, 0.0);
  const auto c = port.consume(2, 8.0, 50.0);
  EXPECT_FALSE(c.hit);
  EXPECT_DOUBLE_EQ(c.hidden, 0.0);
  EXPECT_FALSE(port.has_staged());  // cancel-on-mispredict frees the port
}

TEST(IcapPort, SinglePortSerializesStagedLoads) {
  sim::IcapPort port;
  port.stage(1, 10.0, 0.0);   // occupies the port over [0, 10)
  port.stage(2, 10.0, 4.0);   // must wait: starts at 10, not 4
  // At t=12 the second load has only 2 cycles of progress.
  const auto c = port.consume(2, 10.0, 12.0);
  EXPECT_TRUE(c.hit);
  EXPECT_DOUBLE_EQ(c.hidden, 2.0);
}

TEST(IcapPort, CancelAllDropsEverySpeculativeLoad) {
  sim::IcapPort port;
  port.stage(1, 10.0, 0.0);
  port.stage(2, 5.0, 1.0);
  EXPECT_EQ(port.queued(), 2u);
  port.cancel_all();
  EXPECT_FALSE(port.has_staged());
  const auto c = port.consume(1, 10.0, 100.0);
  EXPECT_FALSE(c.hit);
  EXPECT_DOUBLE_EQ(c.hidden, 0.0);
}

// --- TrendPredictor ---

TEST(TrendPredictor, RecoversTheAr1DriftFactorFromObservations) {
  // Deterministic AR(1) with phi = 0.6 around mean 100 (makespan) / 0.95
  // (func_rel), driven by seeded white-noise innovations. (A short periodic
  // innovation pattern would not do: its own lag-1 autocorrelation leaks
  // into the estimate, which measures the series, not the driver.)
  TrendPredictor predictor;
  util::Rng rng(19);
  double m = 100.0, f = 0.95;
  for (int round = 0; round < 4000; ++round) {
    const double e = rng.normal(0.0, 3.0);
    m = 100.0 + 0.6 * (m - 100.0) + e;
    f = 0.95 + 0.6 * (f - 0.95) + e * 0.001;
    dse::QosSpec spec;
    spec.max_makespan = m;
    spec.min_func_rel = f;
    predictor.observe(spec);
  }
  EXPECT_NEAR(predictor.phi_makespan(), 0.6, 0.1);
  EXPECT_NEAR(predictor.phi_func_rel(), 0.6, 0.1);
  // The prediction is the closed-form one-step AR(1) extrapolation.
  const auto p = predictor.predict();
  EXPECT_TRUE(std::isfinite(p.max_makespan));
  EXPECT_TRUE(std::isfinite(p.min_func_rel));
}

TEST(TrendPredictor, ConstantSeriesPredictsItselfWithZeroPhi) {
  TrendPredictor predictor;
  for (int i = 0; i < 16; ++i) {
    dse::QosSpec spec;
    spec.max_makespan = 110.0;
    spec.min_func_rel = 0.97;
    predictor.observe(spec);
  }
  EXPECT_DOUBLE_EQ(predictor.phi_makespan(), 0.0);  // zero variance guard
  const auto p = predictor.predict();
  EXPECT_DOUBLE_EQ(p.max_makespan, 110.0);
  EXPECT_DOUBLE_EQ(p.min_func_rel, 0.97);
}

// --- End-to-end transparency differentials ---

class PrefetchDifferential : public ::testing::TestWithParam<exp::PolicyKind> {
 protected:
  dse::DesignDb db_ = make_db();
  DrcMatrix drc_ = make_drc();
  dse::MetricRanges ranges_ = make_ranges();
};

TEST_P(PrefetchDifferential, PrefetchNeverChangesAnyPrePortField) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    exp::RuntimeEvalParams params;
    params.kind = GetParam();
    params.sim.total_cycles = 3e4;
    params.prefetch = false;
    const auto off = exp::evaluate_policy_with(db_, drc_, ranges_, params, seed);
    params.prefetch = true;
    const auto on = exp::evaluate_policy_with(db_, drc_, ranges_, params, seed);
    expect_pre_port_fields_identical(off, on);
    expect_port_invariant(off);
    expect_port_invariant(on);
    // Off: nothing was staged, so every reconfiguration stalled in full.
    EXPECT_EQ(off.prefetch_hidden_time, 0.0);
    EXPECT_EQ(off.reconfig_stall_time, off.total_reconfig_cost);
    EXPECT_EQ(off.prefetch_hits + off.prefetch_misses, 0u);
  }
}

TEST_P(PrefetchDifferential, PrefetchTransparencyHoldsUnderFaultInjection) {
  exp::RuntimeEvalParams params;
  params.kind = GetParam();
  params.sim.total_cycles = 3e4;
  params.faults.transient_rate = 5e-6;
  params.faults.pe_mtbf = 5e5;
  params.prefetch = false;
  const auto off = exp::evaluate_policy_with(db_, drc_, ranges_, params, 42);
  params.prefetch = true;
  const auto on = exp::evaluate_policy_with(db_, drc_, ranges_, params, 42);
  expect_pre_port_fields_identical(off, on);
  expect_port_invariant(off);
  expect_port_invariant(on);
}

INSTANTIATE_TEST_SUITE_P(Policies, PrefetchDifferential,
                         ::testing::Values(exp::PolicyKind::Baseline, exp::PolicyKind::Ura,
                                           exp::PolicyKind::Aura, exp::PolicyKind::Mdp),
                         [](const auto& info) {
                           switch (info.param) {
                             case exp::PolicyKind::Baseline: return "Baseline";
                             case exp::PolicyKind::Ura: return "Ura";
                             case exp::PolicyKind::Aura: return "Aura";
                             case exp::PolicyKind::Mdp: return "Mdp";
                           }
                           return "Unknown";
                         });

TEST(PrefetchDeterminism, RepeatedRunsAreBitIdentical) {
  const dse::DesignDb db = make_db();
  const DrcMatrix drc = make_drc();
  exp::RuntimeEvalParams params;
  params.kind = exp::PolicyKind::Aura;
  params.sim.total_cycles = 2e4;
  params.prefetch = true;
  const auto a = exp::evaluate_policy_with(db, drc, make_ranges(), params, 9);
  const auto b = exp::evaluate_policy_with(db, drc, make_ranges(), params, 9);
  expect_pre_port_fields_identical(a, b);
  EXPECT_EQ(a.reconfig_stall_time, b.reconfig_stall_time);
  EXPECT_EQ(a.prefetch_hidden_time, b.prefetch_hidden_time);
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
  EXPECT_EQ(a.prefetch_misses, b.prefetch_misses);
  EXPECT_EQ(a.service_availability, b.service_availability);
}

TEST(PrefetchDeterminism, PrefetchEventuallyHidesLatencyOnAPredictableProcess) {
  // With a strongly autocorrelated QoS process and a long horizon the
  // predictor must land at least some hits — otherwise the wrapper is dead
  // code and the "availability uplift" claim is vacuous.
  const dse::DesignDb db = make_db();
  const DrcMatrix drc = make_drc();
  exp::RuntimeEvalParams params;
  params.kind = exp::PolicyKind::Ura;
  params.sim.total_cycles = 2e5;
  params.qos.ar1_phi = 0.9;
  params.prefetch = true;
  const auto stats = exp::evaluate_policy_with(db, drc, make_ranges(), params, 3);
  EXPECT_GT(stats.prefetch_hits, 0u);
  EXPECT_GT(stats.prefetch_hidden_time, 0.0);
  EXPECT_LT(stats.reconfig_stall_time, stats.total_reconfig_cost);
  EXPECT_GE(stats.service_availability,
            std::clamp(1.0 - (stats.downtime + stats.total_reconfig_cost) / stats.total_cycles,
                       0.0, 1.0));
}

// --- Mdp policy + shared-table equivalence ---

TEST(MdpPolicyRuntime, SharedTableAndPerRunRebuildAreBitIdentical) {
  const dse::DesignDb db = make_db();
  const DrcMatrix drc = make_drc();
  const dse::MetricRanges ranges = make_ranges();
  exp::RuntimeEvalParams params;
  params.kind = exp::PolicyKind::Mdp;
  params.sim.total_cycles = 2e4;
  const MdpTable table =
      build_mdp_table(db, drc, ranges, params.p_rc, params.qos, params.faults, params.mdp);
  const auto rebuilt = exp::evaluate_policy_with(db, drc, ranges, params, 11);
  const auto shared = exp::evaluate_policy_with(db, drc, ranges, params, 11, nullptr, &table);
  expect_pre_port_fields_identical(rebuilt, shared);
  EXPECT_EQ(rebuilt.reconfig_stall_time, shared.reconfig_stall_time);
  EXPECT_EQ(rebuilt.service_availability, shared.service_availability);
}

TEST(MdpPolicyRuntime, TableLookupRespectsFeasibilityAndStaysInRange) {
  const dse::DesignDb db = make_db();
  const DrcMatrix drc = make_drc();
  const dse::MetricRanges ranges = make_ranges();
  exp::RuntimeEvalParams params;
  const MdpTable table =
      build_mdp_table(db, drc, ranges, 0.5, params.qos, params.faults, params.mdp);
  ASSERT_EQ(table.num_points, db.size());
  ASSERT_EQ(table.policy.size(), table.num_states());
  for (const std::uint32_t a : table.policy) EXPECT_LT(a, db.size());

  MdpPolicy policy(db, drc, table);
  dse::QosSpec spec;
  spec.max_makespan = 105.0;
  spec.min_func_rel = 0.94;
  const auto d = policy.select(0, spec);
  EXPECT_LT(d.point, db.size());
  // peek must match select exactly (both are the same pure decision rule)
  // and leave no episode state behind.
  const auto p = policy.peek(0, spec);
  EXPECT_EQ(p.point, d.point);
}

TEST(MdpPolicyRuntime, RejectsDrcMatrixOfAnotherDatabase) {
  const dse::DesignDb db = make_db();
  const DrcMatrix drc = make_drc();
  exp::RuntimeEvalParams params;
  const MdpTable table =
      build_mdp_table(db, drc, make_ranges(), 0.5, params.qos, params.faults, params.mdp);
  const DrcMatrix smaller(2, {0, 1, 1, 0});
  EXPECT_THROW(MdpPolicy(db, smaller, table), std::invalid_argument);
}

}  // namespace
}  // namespace clr::rt
