// Differential oracle suite (DESIGN.md §5.9): the flat CompiledGraph kernel
// must be *bit-identical* to ReferenceScheduler — the original pointer-based
// implementation kept verbatim — on every metric and every per-task window.
// "Bit-identical" is checked with exact double equality (EXPECT_EQ), not
// near-equality: the kernel's contract is that it performs the same
// floating-point operations in the same order, so any ULP drift is a bug.
//
// Coverage: 500 seeded TGFF-style random graphs crossed with five platform
// shapes (default HMPSoC, single-PE, homogeneous dual-core bus, two-type
// mesh, eight-PE three-type mesh) and all three CLR granularities, each
// evaluated on several random valid configurations. Every case is run in
// jobs=1 and jobs=8 mode through util::ThreadPool with per-thread scratch
// arenas, proving results do not depend on the thread count. Each cell also
// re-times the recorded dispatch order with every task's AvgExT
// (CompiledGraph::retime, the Monte-Carlo validator's timing path), which
// must reproduce the evaluated windows and makespan bit for bit.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "experiments/app.hpp"
#include "platform/platform.hpp"
#include "schedule/compiled_graph.hpp"
#include "schedule/heft.hpp"
#include "schedule/scheduler.hpp"
#include "taskgraph/generator.hpp"

#include "reference_scheduler.hpp"

namespace clr {
namespace {

constexpr std::size_t kNumCases = 500;
constexpr std::size_t kBatch = 50;         // cases held in memory at once
constexpr std::size_t kConfigsPerCase = 2; // random configurations per case
constexpr std::uint64_t kSuiteTag = 0xD1FFu;

/// One GeneralPurpose PE type; perf/power spread by `index`.
plat::PeType gp_type(double perf, double power) {
  plat::PeType t;
  t.kind = plat::PeKind::GeneralPurpose;
  t.perf_factor = perf;
  t.power_factor = power;
  t.avf = 0.4;
  t.beta_aging = 2.0;
  return t;
}

plat::PeType dsp_type() {
  plat::PeType t;
  t.kind = plat::PeKind::Dsp;
  t.perf_factor = 0.6;
  t.power_factor = 1.3;
  t.avf = 0.3;
  t.beta_aging = 2.4;
  return t;
}

/// Five platform shapes exercising: the production platform, the degenerate
/// single PE, a homogeneous bus, a small heterogeneous mesh and a wide
/// three-type mesh (comm_factor > 1 paths).
plat::Platform make_platform(std::size_t shape) {
  plat::Platform hw;
  switch (shape % 5) {
    case 0:
      return plat::make_default_hmpsoc();
    case 1: {  // single PE
      const auto t = hw.add_pe_type(gp_type(1.0, 1.0));
      hw.add_pe(t);
      return hw;
    }
    case 2: {  // dual-core homogeneous bus
      const auto t = hw.add_pe_type(gp_type(1.0, 1.0));
      hw.add_pe(t);
      hw.add_pe(t);
      return hw;
    }
    case 3: {  // 4-PE two-type 2x2 mesh
      const auto g = hw.add_pe_type(gp_type(1.0, 1.0));
      const auto d = hw.add_pe_type(dsp_type());
      hw.add_pe(g);
      hw.add_pe(g);
      hw.add_pe(d);
      hw.add_pe(d);
      plat::Interconnect ic;
      ic.topology = plat::Topology::Mesh2D;
      ic.mesh_columns = 2;
      hw.set_interconnect(ic);
      return hw;
    }
    default: {  // 8-PE three-type 4x2 mesh
      const auto g0 = hw.add_pe_type(gp_type(1.0, 1.0));
      const auto g1 = hw.add_pe_type(gp_type(1.4, 0.7));
      const auto d = hw.add_pe_type(dsp_type());
      for (int i = 0; i < 4; ++i) hw.add_pe(g0);
      for (int i = 0; i < 2; ++i) hw.add_pe(g1);
      for (int i = 0; i < 2; ++i) hw.add_pe(d);
      plat::Interconnect ic;
      ic.topology = plat::Topology::Mesh2D;
      ic.mesh_columns = 4;
      hw.set_interconnect(ic);
      return hw;
    }
  }
}

rel::ClrGranularity granularity_for(std::size_t i) {
  switch (i % 3) {
    case 0:
      return rel::ClrGranularity::Full;
    case 1:
      return rel::ClrGranularity::Coarse;
    default:
      return rel::ClrGranularity::HwOnly;
  }
}

/// Seeded fuzz case: graph size sweeps 1..40 tasks; shape and granularity
/// cycle so every (shape, granularity) pair appears many times.
std::unique_ptr<exp::AppInstance> make_case(std::size_t i) {
  tg::GeneratorParams gp;
  gp.num_tasks = 1 + (i % 40);
  gp.max_out_degree = 2 + (i % 4);
  gp.max_in_degree = 2 + (i % 3);
  gp.fan_in_prob = 0.15 + 0.05 * static_cast<double>(i % 7);
  util::Rng rng(exp::derive_seed(kSuiteTag, i));
  tg::TaskGraph graph = tg::TgffGenerator(gp).generate(rng);
  return std::make_unique<exp::AppInstance>(std::move(graph), make_platform(i),
                                            granularity_for(i), rel::FaultModel{},
                                            rel::ImplGenParams{},
                                            exp::derive_seed(kSuiteTag + 1, i));
}

/// Uniformly random *valid* configuration: a PE with at least one compatible
/// implementation, a compatible implementation on it, an in-range CLR index
/// and a priority in [0, n). generate_implementations guarantees every task
/// runs on every non-accelerator PE type, so the PE candidate list is never
/// empty on these platforms.
sched::Configuration random_config(const sched::EvalContext& ctx, util::Rng& rng) {
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
    cfg[t].priority = static_cast<std::int32_t>(rng.index(n));
  }
  return cfg;
}

struct Case {
  std::unique_ptr<exp::AppInstance> app;
  std::unique_ptr<sched::CompiledGraph> cg;
  std::vector<sched::Configuration> cfgs;
  std::vector<sched::ScheduleResult> ref;  // oracle result per configuration
};

/// Kernel output captured per (case, configuration) cell by the parallel run.
struct CellResult {
  sched::KernelMetrics metrics;
  std::vector<double> start, end;
  double retimed_makespan = 0.0;                ///< retime() with each avg_ext
  std::vector<double> retimed_start, retimed_end;
};

void expect_identical(const sched::ScheduleResult& ref, const CellResult& got,
                      std::size_t case_index, std::size_t cfg_index) {
  SCOPED_TRACE(::testing::Message() << "case " << case_index << " cfg " << cfg_index);
  EXPECT_EQ(ref.makespan, got.metrics.makespan);
  EXPECT_EQ(ref.func_rel, got.metrics.func_rel);
  EXPECT_EQ(ref.peak_power, got.metrics.peak_power);
  EXPECT_EQ(ref.energy, got.metrics.energy);
  EXPECT_EQ(ref.system_mttf, got.metrics.system_mttf);
  ASSERT_EQ(ref.tasks.size(), got.start.size());
  for (std::size_t t = 0; t < ref.tasks.size(); ++t) {
    EXPECT_EQ(ref.tasks[t].start, got.start[t]) << "task " << t;
    EXPECT_EQ(ref.tasks[t].end, got.end[t]) << "task " << t;
  }
  EXPECT_EQ(got.retimed_makespan, got.metrics.makespan);
  EXPECT_EQ(got.retimed_start, got.start);
  EXPECT_EQ(got.retimed_end, got.end);
}

TEST(ScheduleDifferential, KernelBitIdenticalToReferenceAtJobs1And8) {
  const sched::ReferenceScheduler oracle;
  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);

  for (std::size_t base = 0; base < kNumCases; base += kBatch) {
    // Build the batch and its oracle results sequentially.
    std::vector<Case> cases(kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) {
      const std::size_t i = base + k;
      cases[k].app = make_case(i);
      const sched::EvalContext& ctx = cases[k].app->context();
      cases[k].cg = std::make_unique<sched::CompiledGraph>(ctx);
      util::Rng rng(exp::derive_seed(kSuiteTag + 2, i));
      for (std::size_t c = 0; c < kConfigsPerCase; ++c) {
        sched::Configuration cfg = random_config(ctx, rng);
        cases[k].ref.push_back(oracle.run(ctx, cfg));
        cases[k].cfgs.push_back(std::move(cfg));
      }
    }

    // Evaluate every (case, configuration) cell through the kernel at both
    // thread counts; each worker reuses its own thread_local arena.
    const std::size_t cells = kBatch * kConfigsPerCase;
    for (util::ThreadPool* pool : {&pool1, &pool8}) {
      std::vector<CellResult> out(cells);
      pool->parallel_for(cells, [&](std::size_t cell) {
        thread_local sched::EvalScratch scratch;
        const Case& cs = cases[cell / kConfigsPerCase];
        const sched::Configuration& cfg = cs.cfgs[cell % kConfigsPerCase];
        const std::size_t n = cs.app->graph().num_tasks();
        out[cell].metrics = cs.cg->evaluate(cfg, scratch);
        out[cell].start.assign(scratch.start.begin(), scratch.start.begin() + n);
        out[cell].end.assign(scratch.end.begin(), scratch.end.begin() + n);

        std::vector<double> avg_ext(n);
        for (tg::TaskId t = 0; t < n; ++t) {
          avg_ext[t] = cs.cg->metrics_for(t, cfg[t].impl_index, cfg[t].clr_index).avg_ext;
        }
        out[cell].retimed_makespan = cs.cg->retime(cfg, avg_ext, scratch);
        out[cell].retimed_start.assign(scratch.start.begin(), scratch.start.begin() + n);
        out[cell].retimed_end.assign(scratch.end.begin(), scratch.end.begin() + n);
      });
      for (std::size_t cell = 0; cell < cells; ++cell) {
        expect_identical(cases[cell / kConfigsPerCase].ref[cell % kConfigsPerCase], out[cell],
                         base + cell / kConfigsPerCase, cell % kConfigsPerCase);
      }
    }
  }
}

// CompiledGraph::schedule must also reproduce the oracle's per-task metric
// bundles (the fields evaluate() does not return).
TEST(ScheduleDifferential, ScheduleResultMatchesReferencePerTaskMetrics) {
  const sched::ReferenceScheduler oracle;
  sched::EvalScratch scratch;
  for (std::size_t i = 0; i < 30; ++i) {
    const auto app = make_case(7 * i + 3);
    const sched::EvalContext& ctx = app->context();
    const sched::CompiledGraph cg(ctx);
    util::Rng rng(exp::derive_seed(kSuiteTag + 3, i));
    const sched::Configuration cfg = random_config(ctx, rng);
    const auto want = oracle.run(ctx, cfg);
    const auto got = cg.schedule(cfg, scratch);
    SCOPED_TRACE(::testing::Message() << "case " << i);
    EXPECT_EQ(want.makespan, got.makespan);
    EXPECT_EQ(want.func_rel, got.func_rel);
    EXPECT_EQ(want.peak_power, got.peak_power);
    EXPECT_EQ(want.energy, got.energy);
    EXPECT_EQ(want.system_mttf, got.system_mttf);
    ASSERT_EQ(want.tasks.size(), got.tasks.size());
    for (std::size_t t = 0; t < want.tasks.size(); ++t) {
      EXPECT_EQ(want.tasks[t].start, got.tasks[t].start);
      EXPECT_EQ(want.tasks[t].end, got.tasks[t].end);
      EXPECT_EQ(want.tasks[t].metrics.min_ext, got.tasks[t].metrics.min_ext);
      EXPECT_EQ(want.tasks[t].metrics.avg_ext, got.tasks[t].metrics.avg_ext);
      EXPECT_EQ(want.tasks[t].metrics.err_prob, got.tasks[t].metrics.err_prob);
      EXPECT_EQ(want.tasks[t].metrics.mttf, got.tasks[t].metrics.mttf);
      EXPECT_EQ(want.tasks[t].metrics.avg_power, got.tasks[t].metrics.avg_power);
      EXPECT_EQ(want.tasks[t].metrics.eta, got.tasks[t].metrics.eta);
    }
  }
}

// The CompiledGraph HEFT overloads (which fix the by-value cost-table copies
// of the pointer-based path) must seed the exact same configuration.
TEST(ScheduleDifferential, HeftSeedMatchesReferenceOverloads) {
  for (std::size_t i = 0; i < 60; ++i) {
    const auto app = make_case(11 * i + 1);
    const sched::EvalContext& ctx = app->context();
    const sched::CompiledGraph cg(ctx);

    const auto ranks_ref = sched::upward_ranks(ctx);
    const auto ranks_fast = sched::upward_ranks(cg);
    ASSERT_EQ(ranks_ref.size(), ranks_fast.size());
    for (std::size_t t = 0; t < ranks_ref.size(); ++t) {
      EXPECT_EQ(ranks_ref[t], ranks_fast[t]) << "rank of task " << t << " case " << i;
    }

    const auto want = sched::heft_seed(ctx);
    const auto got = sched::heft_seed(cg);
    ASSERT_EQ(want.size(), got.size());
    for (tg::TaskId t = 0; t < want.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "case " << i << " task " << t);
      EXPECT_EQ(want[t].pe, got[t].pe);
      EXPECT_EQ(want[t].impl_index, got[t].impl_index);
      EXPECT_EQ(want[t].clr_index, got[t].clr_index);
      EXPECT_EQ(want[t].priority, got[t].priority);
    }
  }
}

}  // namespace
}  // namespace clr
