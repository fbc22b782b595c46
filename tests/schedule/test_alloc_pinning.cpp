// Allocation pinning for the flat evaluation kernel (ISSUE 5 / DESIGN.md
// §5.9): once a per-thread EvalScratch is warm for a problem shape, a
// CompiledGraph evaluation must perform *zero* heap allocations, and the
// MappingProblem steady-state paths (decode_into + cache-hit
// evaluate_metrics) must stay allocation-free too. The run-time decision
// path has the same contract (DESIGN.md §5.16): warm policy decisions, the
// construction of an MdpPolicy and a warm learning AuRA simulation run
// allocate nothing, also through a DecisionTable once every slab is
// allocated. The count is enforced by replacing the global operator
// new/delete with counting versions, which is why this suite lives in its
// own binary (alloc_tests) — the override is program-wide.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "dse/mapping_problem.hpp"
#include "experiments/app.hpp"
#include "faults/fault_model.hpp"
#include "reconfig/reconfig.hpp"
#include "runtime/mdp_policy.hpp"
#include "runtime/policy.hpp"
#include "runtime/qos_process.hpp"
#include "runtime/simulator.hpp"
#include "schedule/batch.hpp"
#include "schedule/compiled_graph.hpp"
#include "schedule/heft.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace clr {
namespace {

std::uint64_t allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

// The instrument itself must observe ordinary allocations, otherwise a
// zero-count result proves nothing.
TEST(AllocPinning, InstrumentCountsHeapAllocations) {
  const std::uint64_t before = allocs();
  auto* v = new std::vector<int>(1024, 7);
  const std::uint64_t delta = allocs() - before;
  delete v;
  EXPECT_GE(delta, 2u);  // the vector object + its buffer
}

TEST(AllocPinning, WarmKernelEvaluationIsAllocationFree) {
  const auto app = exp::make_synthetic_app(24, exp::derive_seed(0xA110Cu, 24));
  const sched::CompiledGraph cg(app->context());
  const sched::Configuration cfg = sched::heft_seed(cg);

  sched::EvalScratch scratch;
  sched::KernelMetrics warm = cg.evaluate(cfg, scratch);  // sizes the arena

  const std::uint64_t before = allocs();
  sched::KernelMetrics m;
  for (int i = 0; i < 100; ++i) m = cg.evaluate(cfg, scratch);
  const std::uint64_t delta = allocs() - before;

  EXPECT_EQ(delta, 0u) << "kernel evaluation allocated on the warm path";
  EXPECT_EQ(m.makespan, warm.makespan);  // and still computes the same result
  EXPECT_EQ(m.energy, warm.energy);
}

// The batched entry point has the same contract (DESIGN.md §5.10): once the
// BatchScratch is warm for the shape, evaluate_batch — including the per-lane
// SoA transpose staging — performs zero heap allocations at any batch size.
TEST(AllocPinning, WarmBatchedEvaluationIsAllocationFree) {
  const auto app = exp::make_synthetic_app(24, exp::derive_seed(0xA110Cu, 24));
  const sched::CompiledGraph cg(app->context());
  const sched::Configuration seed = sched::heft_seed(cg);

  // A population of distinct configurations (perturbed priorities) so the
  // transpose writes real data every block, partial tail included.
  std::vector<sched::Configuration> cfgs(3 * sched::BatchGenomes::kLanes + 5, seed);
  for (std::size_t c = 0; c < cfgs.size(); ++c) {
    for (std::size_t t = 0; t < cfgs[c].size(); ++t) {
      cfgs[c][t].priority = static_cast<std::int32_t>((t + c) % cfgs[c].size());
    }
  }
  std::vector<sched::KernelMetrics> out(cfgs.size());
  sched::BatchScratch scratch;
  cg.evaluate_batch({cfgs.data(), cfgs.size()}, scratch, {out.data(), out.size()});  // warm

  const std::uint64_t before = allocs();
  for (int i = 0; i < 50; ++i) {
    cg.evaluate_batch({cfgs.data(), cfgs.size()}, scratch, {out.data(), out.size()});
    // Single-configuration spans keep the one-lane path pinned too.
    cg.evaluate_batch({cfgs.data(), 1}, scratch, {out.data(), 1});
  }
  const std::uint64_t delta = allocs() - before;

  EXPECT_EQ(delta, 0u) << "batched evaluation allocated on the warm path";
  sched::EvalScratch sscratch;
  const sched::KernelMetrics want = cg.evaluate(cfgs.back(), sscratch);
  EXPECT_EQ(want.makespan, out.back().makespan);  // and still computes the same result
  EXPECT_EQ(want.peak_power, out.back().peak_power);
}

TEST(AllocPinning, WarmDecodeIntoIsAllocationFree) {
  const auto app = exp::make_synthetic_app(16, exp::derive_seed(0xA110Cu, 16));
  const dse::MappingProblem problem(app->context(), {1e9, 0.0}, dse::ObjectiveMode::EnergyQos);
  const std::vector<int> genes = problem.encode(sched::heft_seed(problem.compiled()));

  sched::Configuration cfg;
  problem.decode_into(genes, &cfg);  // warm the target

  const std::uint64_t before = allocs();
  for (int i = 0; i < 100; ++i) problem.decode_into(genes, &cfg);
  const std::uint64_t delta = allocs() - before;
  EXPECT_EQ(delta, 0u) << "decode_into allocated on the warm path";
}

TEST(AllocPinning, CacheHitEvaluateMetricsIsAllocationFree) {
  const auto app = exp::make_synthetic_app(16, exp::derive_seed(0xA110Cu, 16));
  const dse::MappingProblem problem(app->context(), {1e9, 0.0}, dse::ObjectiveMode::EnergyQos);
  const std::vector<int> genes = problem.encode(sched::heft_seed(problem.compiled()));

  const dse::ScheduleMetrics first = problem.evaluate_metrics(genes);  // miss: memo store

  const std::uint64_t before = allocs();
  dse::ScheduleMetrics m;
  for (int i = 0; i < 100; ++i) m = problem.evaluate_metrics(genes);
  const std::uint64_t delta = allocs() - before;

  EXPECT_EQ(delta, 0u) << "memo-cache hit path allocated";
  EXPECT_EQ(m.makespan, first.makespan);
  EXPECT_EQ(problem.schedule_runs(), 1u);  // every counted call was a hit
}

TEST(AllocPinning, WarmDrcTableEvaluationIsAllocationFree) {
  const auto app = exp::make_synthetic_app(24, exp::derive_seed(0xA110Cu, 24));
  const dse::MappingProblem problem(app->context(), {1e9, 0.0}, dse::ObjectiveMode::EnergyQos);
  const recfg::ReconfigModel model(app->platform(), app->impls());
  util::Rng rng(11);
  std::vector<sched::Configuration> targets;
  for (int i = 0; i < 8; ++i) targets.push_back(problem.decode(problem.random_genes(rng)));
  const recfg::DrcTable table(model, targets);
  const sched::Configuration from = problem.decode(problem.random_genes(rng));

  const double first = table.average_drc(from);  // warm this thread's accumulators

  const std::uint64_t before = allocs();
  double last = 0.0;
  for (int i = 0; i < 100; ++i) last = table.average_drc(from);
  const std::uint64_t delta = allocs() - before;

  EXPECT_EQ(delta, 0u) << "warm dRC-table evaluation allocated";
  EXPECT_EQ(last, first);
  EXPECT_EQ(first, model.average_drc(from, targets));
}

// --- Run-time decisions ------------------------------------------------------

/// 90 stored points (the scale of the fleet workloads' databases) on 6 PEs,
/// with a dense cost table.
struct DecisionFixture {
  dse::DesignDb db;
  rt::DrcMatrix drc{0, {}};

  DecisionFixture() {
    util::Rng rng(0xDEC1u);
    constexpr std::size_t kPoints = 90;
    for (std::size_t i = 0; i < kPoints; ++i) {
      dse::DesignPoint p;
      p.makespan = rng.uniform(80.0, 120.0);
      p.func_rel = rng.uniform(0.92, 0.99);
      p.energy = rng.uniform(30.0, 80.0);
      p.config.tasks.resize(2);
      p.config.tasks[0].pe = static_cast<plat::PeId>(i % 6);
      p.config.tasks[1].pe = static_cast<plat::PeId>((i / 6) % 6);
      p.config.tasks[0].priority = static_cast<std::int32_t>(i);
      db.add(std::move(p));
    }
    std::vector<double> costs(kPoints * kPoints, 0.0);
    for (std::size_t i = 0; i < kPoints; ++i) {
      for (std::size_t j = 0; j < kPoints; ++j) {
        if (i != j) costs[i * kPoints + j] = static_cast<double>(1 + (7 * i + 13 * j) % 17);
      }
    }
    drc = rt::DrcMatrix(kPoints, std::move(costs));
  }
};

/// Heap allocations of ten passes of select + peek over `specs`, after one
/// warming pass. Each pass closes the episode, as the simulator does.
std::uint64_t warm_decision_allocs(rt::AdaptationPolicy& policy,
                                   const std::vector<dse::QosSpec>& specs) {
  const auto pass = [&] {
    std::size_t current = 0;
    for (const auto& spec : specs) {
      current = policy.select(current, spec).point;
      (void)policy.peek(current, spec);
    }
    policy.end_episode();
  };
  pass();
  const std::uint64_t before = allocs();
  for (int i = 0; i < 10; ++i) pass();
  return allocs() - before;
}

TEST(AllocPinning, WarmPolicyDecisionsAreAllocationFree) {
  const DecisionFixture f;
  const dse::MetricRanges ranges = f.db.ranges();
  const rt::QosProcess qos(ranges);
  util::Rng rng(7);
  std::vector<dse::QosSpec> specs;  // loose, tight and infeasible requirements
  for (int i = 0; i < 200; ++i) specs.push_back(qos.sample_spec(rng));
  specs.push_back(dse::QosSpec{0.5 * ranges.makespan_min, 1.0});
  rt::MdpPolicyParams grid;
  grid.makespan_bins = 3;
  grid.func_rel_bins = 3;
  const rt::MdpTable table = rt::build_mdp_table(f.db, f.drc, ranges, 0.5, rt::QosProcessParams{},
                                                 flt::FaultParams{}, grid);
  flt::PlatformHealth health(f.db, 6);
  health.kill_pe(5);  // retires every point with a task on PE 5

  // A fleet constructs one MdpPolicy per device over its one shared table:
  // construction allocates nothing (the table carries its value order).
  const std::uint64_t before = allocs();
  { const rt::MdpPolicy probe(f.db, f.drc, table); }
  EXPECT_EQ(allocs() - before, 0u) << "MdpPolicy construction";

  for (const bool masked : {false, true}) {
    rt::UraPolicy ura(f.db, f.drc, 0.5);
    rt::AuraPolicy aura(f.db, f.drc, 0.5);
    rt::BaselinePolicy baseline(f.db, f.drc);
    rt::MdpPolicy mdp(f.db, f.drc, table);
    const std::pair<const char*, rt::AdaptationPolicy*> policies[] = {
        {"uRA", &ura}, {"AuRA", &aura}, {"Baseline", &baseline}, {"MDP", &mdp}};
    for (const auto& [name, policy] : policies) {
      if (masked) policy->set_health(&health);
      EXPECT_EQ(warm_decision_allocs(*policy, specs), 0u)
          << name << (masked ? " with" : " without") << " an alive mask";
    }
  }
}

/// Allocate every point's slab of `table`: one feasible decision from each.
void visit_every_slab(rt::UraPolicy& policy, const dse::DesignDb& db) {
  const dse::QosSpec anything{std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < db.size(); ++i) (void)policy.peek(i, anything);
}

TEST(AllocPinning, WarmTableBackedDecisionsAreAllocationFree) {
  const DecisionFixture f;
  const dse::MetricRanges ranges = f.db.ranges();
  const rt::QosProcess qos(ranges);
  util::Rng rng(7);
  std::vector<dse::QosSpec> specs;  // loose, tight and infeasible requirements
  for (int i = 0; i < 200; ++i) specs.push_back(qos.sample_spec(rng));
  specs.push_back(dse::QosSpec{0.5 * ranges.makespan_min, 1.0});
  const flt::PlatformHealth all_alive(f.db, 6);

  for (const bool masked : {false, true}) {
    rt::DecisionTable table(f.db, f.drc, 0.5, 0.0);
    rt::UraPolicy ura(f.db, f.drc, 0.5, &table);
    rt::AuraPolicy aura(f.db, f.drc, 0.5, rt::AuraPolicy::Params{}, &table);
    visit_every_slab(ura, f.db);
    const std::pair<const char*, rt::AdaptationPolicy*> policies[] = {{"uRA", &ura},
                                                                     {"AuRA", &aura}};
    for (const auto& [name, policy] : policies) {
      if (masked) policy->set_health(&all_alive);
      EXPECT_EQ(warm_decision_allocs(*policy, specs), 0u)
          << name << (masked ? " with" : " without") << " an all-alive mask";
    }
    EXPECT_GT(table.counters().hits, table.counters().fills);
  }
}

TEST(AllocPinning, WarmLearningAuraRunWithATableIsAllocationFree) {
  const DecisionFixture f;
  const rt::QosProcess qos(f.db.ranges());
  rt::SimulationParams params;
  params.total_cycles = 2e4;
  const rt::RuntimeSimulator sim(params);
  rt::DecisionTable table(f.db, f.drc, 0.5, 0.0);
  rt::AuraPolicy policy(f.db, f.drc, 0.5, rt::AuraPolicy::Params{}, &table);
  visit_every_slab(policy, f.db);
  rt::RuntimeStats stats;
  const auto runs = [&] {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      util::Rng rng(seed);
      stats = sim.run(f.db, policy, qos, rng);
    }
  };
  runs();
  const std::uint64_t before = allocs();
  runs();
  const std::uint64_t delta = allocs() - before;

  EXPECT_EQ(delta, 0u) << "warm learning AuRA run with a decision table allocated";
  EXPECT_GT(stats.num_events, 0u);
  EXPECT_GT(table.counters().hits, 0u);
  EXPECT_NE(policy.values(), std::vector<double>(f.db.size(), 0.0));  // the runs learned
}

TEST(AllocPinning, WarmLearningAuraRunIsAllocationFree) {
  const DecisionFixture f;
  const rt::QosProcess qos(f.db.ranges());
  rt::SimulationParams params;
  params.total_cycles = 2e4;
  const rt::RuntimeSimulator sim(params);
  rt::AuraPolicy policy(f.db, f.drc, 0.5);
  rt::RuntimeStats stats;
  // Five fault-free, untraced, learning runs; the warming pass sizes the
  // episode buffer for these seeds.
  const auto runs = [&] {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      util::Rng rng(seed);
      stats = sim.run(f.db, policy, qos, rng);
    }
  };
  runs();
  const std::uint64_t before = allocs();
  runs();
  const std::uint64_t delta = allocs() - before;

  EXPECT_EQ(delta, 0u) << "warm learning AuRA run allocated";
  EXPECT_GT(stats.num_events, 0u);
  EXPECT_NE(policy.values(), std::vector<double>(f.db.size(), 0.0));  // the runs learned
}

}  // namespace
}  // namespace clr
