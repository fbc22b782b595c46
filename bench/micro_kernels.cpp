// google-benchmark micro-kernels for the library's hot paths: schedule
// evaluation, Table 2 metric evaluation, dRC computation, hypervolume,
// NSGA-II generations and the GA operators, run-time policy selection and
// util::Rng's draws.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "dse/design_time.hpp"
#include "experiments/app.hpp"
#include "experiments/flow.hpp"
#include "moea/hypervolume.hpp"
#include "moea/nsga2.hpp"
#include "moea/operators.hpp"
#include "runtime/drc_matrix.hpp"
#include "runtime/simulator.hpp"

namespace {

using namespace clr;

/// Lazily built shared fixtures (one per task count).
struct Fixture {
  std::unique_ptr<exp::AppInstance> app;
  std::unique_ptr<dse::MappingProblem> problem;
  std::unique_ptr<recfg::ReconfigModel> reconfig;
  sched::Configuration cfg_a, cfg_b;
};

Fixture& fixture_for(std::size_t n) {
  static std::map<std::size_t, Fixture> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Fixture f;
    f.app = exp::make_synthetic_app(n, 12345 + n);
    f.problem = std::make_unique<dse::MappingProblem>(f.app->context(), dse::QosSpec{1e9, 0.0},
                                                      dse::ObjectiveMode::EnergyQos);
    f.reconfig = std::make_unique<recfg::ReconfigModel>(f.app->platform(), f.app->impls());
    util::Rng rng(n);
    f.cfg_a = f.problem->decode(f.problem->random_genes(rng));
    f.cfg_b = f.problem->decode(f.problem->random_genes(rng));
    it = cache.emplace(n, std::move(f)).first;
  }
  return it->second;
}

void BM_ScheduleEvaluation(benchmark::State& state) {
  auto& f = fixture_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.problem->evaluate_schedule(f.cfg_a));
  }
}
BENCHMARK(BM_ScheduleEvaluation)->Arg(10)->Arg(20)->Arg(50)->Arg(100);

void BM_TaskMetricsEvaluation(benchmark::State& state) {
  rel::MetricsModel model;
  rel::Implementation impl;
  impl.pe_type = 0;
  plat::PeType pe;
  pe.id = 0;
  const rel::ClrSpace space(rel::ClrGranularity::Full);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(impl, pe, space.config(i)));
    i = (i + 1) % space.size();
  }
}
BENCHMARK(BM_TaskMetricsEvaluation);

void BM_ReconfigCost(benchmark::State& state) {
  auto& f = fixture_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.reconfig->drc(f.cfg_a, f.cfg_b));
  }
}
BENCHMARK(BM_ReconfigCost)->Arg(10)->Arg(50)->Arg(100);

void BM_Hypervolume2d(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<std::array<double, 2>> pts;
  for (int i = 0; i < state.range(0); ++i) pts.push_back({rng.uniform(), rng.uniform()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(moea::hypervolume_2d(pts, {1.0, 1.0}));
  }
}
BENCHMARK(BM_Hypervolume2d)->Arg(16)->Arg(128);

void BM_Hypervolume3d(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<std::array<double, 3>> pts;
  for (int i = 0; i < state.range(0); ++i) {
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(moea::hypervolume_3d(pts, {1.0, 1.0, 1.0}));
  }
}
BENCHMARK(BM_Hypervolume3d)->Arg(16)->Arg(128);

void BM_Nsga2Generation(benchmark::State& state) {
  auto& f = fixture_for(20);
  moea::GaParams params;
  params.population = 32;
  params.generations = 1;
  moea::Nsga2 nsga(params);
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nsga.run(*f.problem, rng));
  }
}
BENCHMARK(BM_Nsga2Generation);

// The GA bookkeeping around each kernel run, per operation, on a 90-task
// (360-gene) genome: one uniform crossover at the paper's pair probability
// 0.7 and one reset mutation at 0.03 per gene (its Coin built once, as
// moea::run_generations does), and one non-dominated sort of NSGA-II's 80
// merged candidates (2 objectives, 30% infeasible) as in ReD.
void BM_UniformCrossover(benchmark::State& state) {
  auto& f = fixture_for(90);
  util::Rng rng(4);
  std::vector<int> a = f.problem->random_genes(rng);
  std::vector<int> b = f.problem->random_genes(rng);
  for (auto _ : state) {
    moea::uniform_crossover(a, b, 0.7, rng);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_UniformCrossover);

void BM_ResetMutation(benchmark::State& state) {
  auto& f = fixture_for(90);
  util::Rng rng(5);
  std::vector<int> genes = f.problem->random_genes(rng);
  const util::Coin mutation(0.03);
  for (auto _ : state) {
    moea::reset_mutation(*f.problem, genes, mutation, rng);
    benchmark::DoNotOptimize(genes.data());
  }
}
BENCHMARK(BM_ResetMutation);

void BM_NonDominatedSort(benchmark::State& state) {
  util::Rng rng(6);
  std::vector<moea::Individual> pop(80);
  for (auto& ind : pop) {
    ind.eval.objectives = {rng.uniform(), rng.uniform()};
    if (rng.chance(0.3)) ind.eval.violation = rng.uniform();
  }
  for (auto _ : state) benchmark::DoNotOptimize(moea::non_dominated_sort(pop));
}
BENCHMARK(BM_NonDominatedSort);

void BM_UraSelect(benchmark::State& state) {
  auto& f = fixture_for(20);
  // Small hand-rolled database from random configurations.
  dse::DesignDb db;
  util::Rng rng(4);
  for (int i = 0; i < 32; ++i) {
    const auto cfg = f.problem->decode(f.problem->random_genes(rng));
    const auto res = f.problem->evaluate_schedule(cfg);
    dse::DesignPoint p;
    p.config = cfg;
    p.energy = res.energy;
    p.makespan = res.makespan;
    p.func_rel = res.func_rel;
    db.add(p);
  }
  rt::DrcMatrix drc(db, *f.reconfig);
  rt::UraPolicy policy(db, drc, 0.5);
  const auto ranges = db.ranges();
  const dse::QosSpec spec{ranges.makespan_min + 0.7 * (ranges.makespan_max - ranges.makespan_min),
                          ranges.func_rel_min};
  std::size_t current = 0;
  for (auto _ : state) {
    current = policy.select(current, spec).point;
    benchmark::DoNotOptimize(current);
  }
}
BENCHMARK(BM_UraSelect);

void BM_DrcMatrixBuild(benchmark::State& state) {
  auto& f = fixture_for(50);
  dse::DesignDb db;
  util::Rng rng(5);
  for (int i = 0; i < state.range(0); ++i) {
    dse::DesignPoint p;
    p.config = f.problem->decode(f.problem->random_genes(rng));
    p.config.tasks[0].priority = 1000 + i;  // force uniqueness
    db.add(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::DrcMatrix(db, *f.reconfig));
  }
}
BENCHMARK(BM_DrcMatrixBuild)->Arg(16)->Arg(64);

// util::Rng: the raw engine word and the samplers drawn per QoS event (two
// normals and an exponential gap), per gene (chance) and per operator pick
// (index); a fleet also constructs two to three Rngs per device.
void BM_RngEngine(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.engine()());
}
BENCHMARK(BM_RngEngine);

void BM_RngNormal(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0.0, 1.0));
}
BENCHMARK(BM_RngNormal);

void BM_RngExponential(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.exponential_mean(100.0));
}
BENCHMARK(BM_RngExponential);

void BM_RngChance(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.chance(0.03));
}
BENCHMARK(BM_RngChance);

void BM_RngIndex(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.index(13));
}
BENCHMARK(BM_RngIndex);

void BM_RngConstruct(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::Rng rng(++seed);
    benchmark::DoNotOptimize(rng.engine()());
  }
}
BENCHMARK(BM_RngConstruct);

}  // namespace

BENCHMARK_MAIN();
