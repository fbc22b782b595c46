// Differential oracle for the Monte-Carlo validator. MonteCarloValidator runs
// one kernel evaluation per configuration, samples the attempt chains in the
// recorded dispatch order and times them with CompiledGraph::retime. It must
// reproduce the validator it replaced, kept verbatim in reference_injector.*,
// bit for bit: every double with EXPECT_EQ, per-task failures, re-executions
// and the Rng end state, through run_once and run_many.
//
// Coverage: 520 seeded cases of 1..90 tasks (64 and 65 included, so the
// kernel's ready bitmask spans one and two words), crossed with λ_SEU in
// {0, the app default, 5e-3, 0.5}, three CLR granularities and four
// platforms (the default HMPSoC and a dual-core bus, a 2x2 and a 4x2 mesh).
// Each case runs one configuration with priorities in [0, n) (the kernel's
// bitmask ready set) and one with priorities outside it (its linear scan).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "experiments/app.hpp"
#include "platform/platform.hpp"
#include "reference_injector.hpp"
#include "sim/fault_injection.hpp"
#include "taskgraph/generator.hpp"

namespace clr::sim {
namespace {

constexpr std::size_t kNumCases = 520;
constexpr std::size_t kRuns = 6;  // run_many length per configuration
constexpr std::uint64_t kSuiteTag = 0x5A1Du;
constexpr double kLambdas[] = {0.0, rel::FaultModel{}.lambda_seu, 5e-3, 0.5};

plat::PeType pe_type(plat::PeKind kind, double perf, double power, double avf) {
  plat::PeType t;
  t.kind = kind;
  t.perf_factor = perf;
  t.power_factor = power;
  t.avf = avf;
  t.beta_aging = 2.0;
  return t;
}

plat::Platform make_platform(std::size_t shape) {
  plat::Platform hw;
  switch (shape % 4) {
    case 0:
      return plat::make_default_hmpsoc();
    case 1: {  // dual-core homogeneous bus
      const auto t = hw.add_pe_type(pe_type(plat::PeKind::GeneralPurpose, 1.0, 1.0, 0.4));
      hw.add_pe(t);
      hw.add_pe(t);
      return hw;
    }
    default: {  // 2x2 two-type mesh, or 4x2 three-type mesh
      const bool wide = shape % 4 == 3;
      const auto g0 = hw.add_pe_type(pe_type(plat::PeKind::GeneralPurpose, 1.0, 1.0, 0.4));
      const auto d = hw.add_pe_type(pe_type(plat::PeKind::Dsp, 0.6, 1.3, 0.3));
      for (int i = 0; i < (wide ? 4 : 2); ++i) hw.add_pe(g0);
      for (int i = 0; i < 2; ++i) hw.add_pe(d);
      if (wide) {
        const auto g1 = hw.add_pe_type(pe_type(plat::PeKind::GeneralPurpose, 1.4, 0.7, 0.5));
        for (int i = 0; i < 2; ++i) hw.add_pe(g1);
      }
      plat::Interconnect ic;
      ic.topology = plat::Topology::Mesh2D;
      ic.mesh_columns = wide ? 4 : 2;
      hw.set_interconnect(ic);
      return hw;
    }
  }
}

std::unique_ptr<exp::AppInstance> make_case(std::size_t i) {
  tg::GeneratorParams gp;
  gp.num_tasks = 1 + i % 90;
  gp.max_out_degree = 2 + i % 4;
  gp.max_in_degree = 2 + i % 3;
  util::Rng rng(exp::derive_seed(kSuiteTag, i));
  tg::TaskGraph graph = tg::TgffGenerator(gp).generate(rng);
  static constexpr rel::ClrGranularity kGranularities[] = {
      rel::ClrGranularity::Full, rel::ClrGranularity::Coarse, rel::ClrGranularity::HwOnly};
  return std::make_unique<exp::AppInstance>(
      std::move(graph), make_platform(i), kGranularities[i % 3],
      rel::FaultModel{kLambdas[(i / 90) % 4]}, rel::ImplGenParams{},
      exp::derive_seed(kSuiteTag + 1, i));
}

/// Random valid configuration. In-range priorities lie in [0, n); otherwise
/// they are drawn from [-n, 2n) and one task is forced to 2n, so the kernel
/// takes its linear-scan selection.
sched::Configuration random_config(const sched::EvalContext& ctx, util::Rng& rng,
                                   bool in_range) {
  const std::size_t n = ctx.graph->num_tasks();
  sched::Configuration cfg;
  cfg.tasks.resize(n);
  for (tg::TaskId t = 0; t < n; ++t) {
    std::vector<plat::PeId> pes;
    for (const auto& pe : ctx.platform->pes()) {
      if (!ctx.impls->compatible_with(t, pe.type).empty()) pes.push_back(pe.id);
    }
    if (pes.empty()) throw std::logic_error("fuzz case: task has no runnable PE");
    const plat::PeId pe = pes[rng.index(pes.size())];
    const auto compat = ctx.impls->compatible_with(t, ctx.platform->pe(pe).type);
    cfg[t].pe = pe;
    cfg[t].impl_index = static_cast<std::uint32_t>(compat[rng.index(compat.size())]);
    cfg[t].clr_index = static_cast<std::uint32_t>(rng.index(ctx.clr_space->size()));
    cfg[t].priority = in_range ? static_cast<std::int32_t>(rng.index(n))
                               : static_cast<std::int32_t>(rng.index(3 * n)) -
                                     static_cast<std::int32_t>(n);
  }
  if (!in_range) cfg[rng.index(n)].priority = static_cast<std::int32_t>(2 * n);
  return cfg;
}

void expect_same_stats(const util::RunningStats& want, const util::RunningStats& got,
                       const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(want.count(), got.count());
  EXPECT_EQ(want.mean(), got.mean());
  EXPECT_EQ(want.variance(), got.variance());
  EXPECT_EQ(want.sum(), got.sum());
  EXPECT_EQ(want.min(), got.min());
  EXPECT_EQ(want.max(), got.max());
}

TEST(ValidatorDifferential, BitIdenticalToReferenceInjector) {
  std::size_t reexecutions = 0, failures = 0, linear_scan = 0;
  for (std::size_t i = 0; i < kNumCases; ++i) {
    const auto app = make_case(i);
    const sched::EvalContext& ctx = app->context();
    const ReferenceInjector oracle(ctx);
    const MonteCarloValidator validator(ctx);
    util::Rng cfg_rng(exp::derive_seed(kSuiteTag + 2, i));
    for (const bool in_range : {true, false}) {
      const sched::Configuration cfg = random_config(ctx, cfg_rng, in_range);
      linear_scan += !in_range;
      SCOPED_TRACE(::testing::Message() << "case " << i << " (n " << cfg.size() << ", lambda "
                                        << kLambdas[(i / 90) % 4] << ", priorities "
                                        << (in_range ? "in" : "out of") << " range)");
      const std::uint64_t seed = exp::derive_seed(kSuiteTag + 3, 2 * i + in_range);

      util::Rng want_rng(seed), got_rng(seed);
      const RunOutcome want = oracle.run_once(cfg, want_rng);
      const RunOutcome got = validator.run_once(cfg, got_rng);
      EXPECT_EQ(want.makespan, got.makespan);
      EXPECT_EQ(want.energy, got.energy);
      EXPECT_EQ(want.weighted_success, got.weighted_success);
      EXPECT_EQ(want.task_failed, got.task_failed);
      EXPECT_EQ(want.reexecutions, got.reexecutions);
      EXPECT_TRUE(want_rng.engine() == got_rng.engine()) << "run_once Rng end state";

      const InjectionAggregate want_agg = oracle.run_many(cfg, kRuns, want_rng);
      const InjectionAggregate got_agg = validator.run_many(cfg, kRuns, got_rng);
      expect_same_stats(want_agg.makespan, got_agg.makespan, "makespan");
      expect_same_stats(want_agg.energy, got_agg.energy, "energy");
      expect_same_stats(want_agg.weighted_success, got_agg.weighted_success, "weighted success");
      EXPECT_EQ(want_agg.task_error_rate, got_agg.task_error_rate);
      EXPECT_EQ(want_agg.mean_reexecutions, got_agg.mean_reexecutions);
      EXPECT_EQ(want_agg.runs, got_agg.runs);
      EXPECT_TRUE(want_rng.engine() == got_rng.engine()) << "run_many Rng end state";

      reexecutions += want.reexecutions;
      for (const bool failed : want.task_failed) failures += failed;
    }
    if (HasFailure()) return;  // the first diverging case is enough output
  }
  // The fuzz reached the regimes it claims to cover.
  EXPECT_EQ(linear_scan, kNumCases);
  EXPECT_GE(reexecutions, 1000u);
  EXPECT_GE(failures, 100u);
}

}  // namespace
}  // namespace clr::sim
