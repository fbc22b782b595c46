// Batched-kernel differential suite (DESIGN.md §5.10): evaluate_batch over
// CompiledGraph must be *bit-identical* to ReferenceScheduler — and therefore
// to the scalar kernel, which tests/schedule/test_differential.cpp pins to
// the same oracle — for every configuration, at every caller-side batch size
// and at every thread count. Exact double equality (EXPECT_EQ) throughout:
// the SoA kernel's contract is that each lane performs the scalar kernel's
// floating-point operations in the scalar kernel's order, so any ULP drift
// is a bug, not noise.
//
// Coverage: 210 seeded fuzz cases (graph sizes 1..40 plus a >64-task band
// that exercises the multi-word ready-bitmap path) crossed with four
// platform shapes and all CLR granularities, 64 random configurations each,
// re-evaluated through caller batch sizes 1, 7, 8 and 64 at jobs=1 and
// jobs=8. Dedicated cases pin the lockstep fallbacks: out-of-range
// priorities (linear-scan lanes), mixed bucketable/non-bucketable lanes in
// one block, extreme power magnitudes (subnormal/near-overflow sweep sums)
// and invalid-gene exception behavior.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <span>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "experiments/app.hpp"
#include "platform/platform.hpp"
#include "schedule/batch.hpp"
#include "schedule/compiled_graph.hpp"
#include "schedule/scheduler.hpp"
#include "taskgraph/generator.hpp"

#include "reference_scheduler.hpp"

namespace clr {
namespace {

constexpr std::size_t kNumCases = 210;
constexpr std::size_t kCaseBatch = 30;  // cases held in memory at once
constexpr std::size_t kConfigs = 64;    // configurations per case
constexpr std::uint64_t kSuiteTag = 0xBA7Cu;
constexpr std::size_t kBatchSizes[] = {1, 7, 8, 64};

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

/// Four platform shapes: production HMPSoC, degenerate single PE,
/// homogeneous dual-core bus, and an 8-PE three-type mesh.
plat::Platform make_platform(std::size_t shape) {
  plat::Platform hw;
  switch (shape % 4) {
    case 0:
      return plat::make_default_hmpsoc();
    case 1: {
      const auto t = hw.add_pe_type(gp_type(1.0, 1.0));
      hw.add_pe(t);
      return hw;
    }
    case 2: {
      const auto t = hw.add_pe_type(gp_type(1.0, 1.0));
      hw.add_pe(t);
      hw.add_pe(t);
      return hw;
    }
    default: {
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

/// Seeded fuzz case. Sizes sweep 1..40; every 10th case jumps to 65..94
/// tasks so the per-lane scheduler's multi-word ready bitmap (n > 64, no
/// lockstep) is exercised. Every 9th case pushes power magnitudes to an
/// extreme (the generator validates base_power > 0, so exactly-zero power —
/// the key-unsafe lane class of the sorting-network sweep — cannot occur in
/// a valid context and that path stays purely defensive): tiny powers drive
/// the running-sum sweep into the subnormal range, huge ones toward
/// overflow, both of which must still come out bit-identical.
std::unique_ptr<exp::AppInstance> make_case(std::size_t i) {
  tg::GeneratorParams gp;
  gp.num_tasks = (i % 10 == 9) ? 65 + (i % 30) : 1 + (i % 40);
  gp.max_out_degree = 2 + (i % 4);
  gp.max_in_degree = 2 + (i % 3);
  gp.fan_in_prob = 0.15 + 0.05 * static_cast<double>(i % 7);
  util::Rng rng(exp::derive_seed(kSuiteTag, i));
  tg::TaskGraph graph = tg::TgffGenerator(gp).generate(rng);
  rel::ImplGenParams ip;
  if (i % 9 == 4) {
    const double scale = (i % 2 == 0) ? 1e-290 : 1e120;
    ip.base_power_min = 0.6 * scale;
    ip.base_power_max = 1.6 * scale;
  }
  return std::make_unique<exp::AppInstance>(std::move(graph), make_platform(i),
                                            granularity_for(i), rel::FaultModel{}, ip,
                                            exp::derive_seed(kSuiteTag + 1, i));
}

/// Uniformly random valid configuration. `prio_mode` picks the priority
/// domain: 0 = in-range [0, n) (bucketable / lockstep), 1 = wide int32
/// values incl. negatives (linear-fallback lanes), 2 = mixed per task.
sched::Configuration random_config(const sched::EvalContext& ctx, util::Rng& rng, int prio_mode) {
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
    const bool wide = prio_mode == 1 || (prio_mode == 2 && t % 2 == 0);
    cfg[t].priority = wide ? static_cast<std::int32_t>(rng.index(1u << 20)) - (1 << 19)
                           : static_cast<std::int32_t>(rng.index(n));
  }
  return cfg;
}

struct Oracle {
  double makespan, func_rel, peak_power, energy, system_mttf;
};

struct Case {
  std::unique_ptr<exp::AppInstance> app;
  std::unique_ptr<sched::CompiledGraph> cg;
  std::vector<sched::Configuration> cfgs;
  std::vector<Oracle> want;
};

void expect_identical(const Oracle& want, const sched::KernelMetrics& got, std::size_t case_index,
                      std::size_t cfg_index, std::size_t batch_size) {
  SCOPED_TRACE(::testing::Message() << "case " << case_index << " cfg " << cfg_index
                                    << " batch_size " << batch_size);
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.func_rel, got.func_rel);
  EXPECT_EQ(want.peak_power, got.peak_power);
  EXPECT_EQ(want.energy, got.energy);
  EXPECT_EQ(want.system_mttf, got.system_mttf);
}

// The main fuzz sweep: every configuration must come out bit-identical to
// the reference oracle through every caller batch size, at jobs=1 and
// jobs=8 (per-thread BatchScratch arenas, like the GA's evaluation loop).
TEST(BatchDifferential, BitIdenticalToReferenceAtAllBatchSizesAndJobs1And8) {
  const sched::ReferenceScheduler oracle;
  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);

  for (std::size_t base = 0; base < kNumCases; base += kCaseBatch) {
    std::vector<Case> cases(kCaseBatch);
    for (std::size_t k = 0; k < kCaseBatch; ++k) {
      const std::size_t i = base + k;
      cases[k].app = make_case(i);
      const sched::EvalContext& ctx = cases[k].app->context();
      cases[k].cg = std::make_unique<sched::CompiledGraph>(ctx);
      util::Rng rng(exp::derive_seed(kSuiteTag + 2, i));
      // Priority domains per configuration: mostly in-range (the lockstep
      // hot path), with wide and mixed configurations interleaved so blocks
      // combine bucketable and fallback lanes.
      for (std::size_t c = 0; c < kConfigs; ++c) {
        const int prio_mode = c % 8 == 5 ? 1 : (c % 8 == 6 ? 2 : 0);
        sched::Configuration cfg = random_config(ctx, rng, prio_mode);
        const auto res = oracle.run(ctx, cfg);
        cases[k].want.push_back(
            {res.makespan, res.func_rel, res.peak_power, res.energy, res.system_mttf});
        cases[k].cfgs.push_back(std::move(cfg));
      }
    }

    for (util::ThreadPool* pool : {&pool1, &pool8}) {
      std::vector<std::vector<sched::KernelMetrics>> out(kCaseBatch);
      pool->parallel_for(kCaseBatch, [&](std::size_t k) {
        thread_local sched::BatchScratch scratch;
        const Case& cs = cases[k];
        out[k].assign(cs.cfgs.size() * std::size(kBatchSizes), sched::KernelMetrics{});
        std::size_t off = 0;
        for (const std::size_t bs : kBatchSizes) {
          // Feed the whole configuration list through spans of `bs` (the
          // tail span is shorter), all into one output strip.
          for (std::size_t c = 0; c < cs.cfgs.size(); c += bs) {
            const std::size_t len = std::min(bs, cs.cfgs.size() - c);
            cs.cg->evaluate_batch({cs.cfgs.data() + c, len}, scratch,
                                  {out[k].data() + off + c, len});
          }
          off += cs.cfgs.size();
        }
      });
      for (std::size_t k = 0; k < kCaseBatch; ++k) {
        std::size_t off = 0;
        for (const std::size_t bs : kBatchSizes) {
          for (std::size_t c = 0; c < cases[k].cfgs.size(); ++c) {
            expect_identical(cases[k].want[c], out[k][off + c], base + k, c, bs);
          }
          off += cases[k].cfgs.size();
        }
      }
    }
  }
}

// evaluate_block with explicit lane counts 1..kLanes: the padded lanes (a
// replicated real genome) must never change the real lanes' bits, and the
// per-task windows left in the scratch must match the oracle's.
TEST(BatchDifferential, PartialBlocksMatchOracleIncludingWindows) {
  const sched::ReferenceScheduler oracle;
  sched::BatchScratch scratch;
  for (std::size_t i = 0; i < 24; ++i) {
    const auto app = make_case(5 * i + 2);
    const sched::EvalContext& ctx = app->context();
    const sched::CompiledGraph cg(ctx);
    const std::size_t n = ctx.graph->num_tasks();
    util::Rng rng(exp::derive_seed(kSuiteTag + 3, i));
    std::vector<sched::Configuration> cfgs;
    for (std::size_t c = 0; c < sched::BatchGenomes::kLanes; ++c) {
      cfgs.push_back(random_config(ctx, rng, static_cast<int>(c % 3)));
    }
    for (std::size_t lanes = 1; lanes <= sched::BatchGenomes::kLanes; ++lanes) {
      scratch.bind(n, ctx.platform->num_pes());
      for (std::size_t l = 0; l < lanes; ++l) scratch.genomes.set(l, cfgs[l]);
      sched::KernelMetrics out[sched::BatchGenomes::kLanes];
      cg.evaluate_block(scratch.genomes, lanes, scratch, out);
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto want = oracle.run(ctx, cfgs[l]);
        SCOPED_TRACE(::testing::Message() << "case " << i << " lanes " << lanes << " lane " << l);
        EXPECT_EQ(want.makespan, out[l].makespan);
        EXPECT_EQ(want.func_rel, out[l].func_rel);
        EXPECT_EQ(want.peak_power, out[l].peak_power);
        EXPECT_EQ(want.energy, out[l].energy);
        EXPECT_EQ(want.system_mttf, out[l].system_mttf);
        for (std::size_t t = 0; t < n; ++t) {
          EXPECT_EQ(want.tasks[t].start, scratch.start[t * sched::BatchScratch::kLanes + l]);
          EXPECT_EQ(want.tasks[t].end, scratch.end[t * sched::BatchScratch::kLanes + l]);
        }
      }
    }
  }
}

// Invalid genes must throw std::invalid_argument through the batched entry
// points exactly like the scalar kernel — including when the bad lane sits
// in a block next to valid ones — and leave the scratch reusable.
TEST(BatchDifferential, InvalidConfigurationsThrowLikeScalar) {
  const auto app = make_case(0);
  const sched::EvalContext& ctx = app->context();
  const sched::CompiledGraph cg(ctx);
  const std::size_t n = ctx.graph->num_tasks();
  util::Rng rng(exp::derive_seed(kSuiteTag + 4, 0));
  std::vector<sched::Configuration> cfgs;
  for (std::size_t c = 0; c < 2 * sched::BatchGenomes::kLanes; ++c) {
    cfgs.push_back(random_config(ctx, rng, 0));
  }
  sched::BatchScratch scratch;
  sched::EvalScratch sscratch;
  std::vector<sched::KernelMetrics> out(cfgs.size());

  const auto corrupt = [&](std::size_t idx, auto&& mutate) {
    std::vector<sched::Configuration> bad = cfgs;
    mutate(bad[idx]);
    EXPECT_THROW(cg.evaluate(bad[idx], sscratch), std::invalid_argument);
    EXPECT_THROW(cg.evaluate_batch({bad.data(), bad.size()}, scratch,
                                   {out.data(), out.size()}),
                 std::invalid_argument);
    // The arena must stay usable after the throw.
    cg.evaluate_batch({cfgs.data(), cfgs.size()}, scratch, {out.data(), out.size()});
    const auto want = cg.evaluate(cfgs[idx], sscratch);
    EXPECT_EQ(want.makespan, out[idx].makespan);
    EXPECT_EQ(want.peak_power, out[idx].peak_power);
  };

  // Bad lane in the middle of the first block, in the second block, and in
  // the LAST lane of each block — pe == P on the last lane is the case where
  // an unclamped phase-1 scatter would write one element past run_off, so
  // ASan catches any regression of the bounds clamp.
  for (const std::size_t idx :
       {std::size_t{3}, sched::BatchGenomes::kLanes - 1, sched::BatchGenomes::kLanes + 1,
        2 * sched::BatchGenomes::kLanes - 1}) {
    corrupt(idx, [&](sched::Configuration& c) {
      c[0].pe = static_cast<plat::PeId>(ctx.platform->num_pes());
    });
    // A huge PE gene makes any unclamped indexing a far-out-of-bounds write.
    corrupt(idx, [&](sched::Configuration& c) {
      c[n / 2].pe = std::numeric_limits<plat::PeId>::max();
    });
    corrupt(idx, [&](sched::Configuration& c) {
      c[n - 1].impl_index = std::numeric_limits<std::uint32_t>::max();
    });
    corrupt(idx, [&](sched::Configuration& c) {
      c[n / 2].clr_index = static_cast<std::uint32_t>(ctx.clr_space->size());
    });
  }

  // Size mismatch throws from the transpose itself.
  std::vector<sched::Configuration> bad = cfgs;
  bad[2].tasks.resize(n + 1);
  EXPECT_THROW(cg.evaluate_batch({bad.data(), bad.size()}, scratch, {out.data(), out.size()}),
               std::invalid_argument);
}

}  // namespace
}  // namespace clr
