// Cross-module property tests: invariants that tie several subsystems
// together (oracle checks, metric consistency, structural inequalities).

#include <gtest/gtest.h>

#include "dse/mapping_problem.hpp"
#include "experiments/flow.hpp"
#include "hypervolume_mc.hpp"
#include "io/json.hpp"
#include "moea/hypervolume.hpp"
#include "reconfig/reconfig.hpp"
#include "runtime/drc_matrix.hpp"

namespace clr {
namespace {

// ---------------------------------------------------------------------------
// dRC structural properties
// ---------------------------------------------------------------------------

/// On a bus interconnect the per-task migration cost depends only on the
/// *target* assignment, so dRC obeys the triangle inequality: every task that
/// differs between a and c differs in at least one of the two legs, and its
/// cost on that leg is at least its direct cost.
TEST(DrcProperties, TriangleInequalityOnBus) {
  const auto app = exp::make_synthetic_app(20, 0x7714);
  dse::MappingProblem problem(app->context(), dse::QosSpec{1e9, 0.0},
                              dse::ObjectiveMode::EnergyQos);
  recfg::ReconfigModel model(app->platform(), app->impls());
  util::Rng rng(1);
  for (int trial = 0; trial < 25; ++trial) {
    const auto a = problem.decode(problem.random_genes(rng));
    const auto b = problem.decode(problem.random_genes(rng));
    const auto c = problem.decode(problem.random_genes(rng));
    EXPECT_LE(model.drc(a, c), model.drc(a, b) + model.drc(b, c) + 1e-9);
  }
}

TEST(DrcProperties, MatrixMatchesDirectEvaluation) {
  const auto app = exp::make_synthetic_app(12, 0x7715);
  dse::MappingProblem problem(app->context(), dse::QosSpec{1e9, 0.0},
                              dse::ObjectiveMode::EnergyQos);
  recfg::ReconfigModel model(app->platform(), app->impls());
  dse::DesignDb db;
  util::Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    dse::DesignPoint p;
    p.config = problem.decode(problem.random_genes(rng));
    p.config.tasks[0].priority = 100 + i;  // force uniqueness
    db.add(p);
  }
  rt::DrcMatrix matrix(db, model);
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (std::size_t j = 0; j < db.size(); ++j) {
      EXPECT_DOUBLE_EQ(matrix.drc(i, j), model.drc(db.point(i).config, db.point(j).config));
    }
  }
}

// ---------------------------------------------------------------------------
// Schedule metric consistency
// ---------------------------------------------------------------------------

/// Energy must equal the sum of per-task energies, Fapp must equal the
/// criticality-weighted success, and the peak power can never exceed the sum
/// of all concurrent task powers nor fall below the largest single one.
class MetricConsistency : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MetricConsistency, HoldsOnRandomConfigurations) {
  const auto app = exp::make_synthetic_app(GetParam(), 0x7716 + GetParam());
  dse::MappingProblem problem(app->context(), dse::QosSpec{1e9, 0.0},
                              dse::ObjectiveMode::EnergyQos);
  util::Rng rng(3);
  sched::ListScheduler scheduler;
  for (int trial = 0; trial < 5; ++trial) {
    const auto cfg = problem.decode(problem.random_genes(rng));
    const auto res = scheduler.run(app->context(), cfg);

    double energy = 0.0, frel = 0.0, max_power = 0.0, power_sum = 0.0;
    for (tg::TaskId t = 0; t < app->graph().num_tasks(); ++t) {
      const auto& m = res.tasks[t].metrics;
      energy += m.energy();
      frel += (1.0 - m.err_prob) * app->graph().normalized_criticality(t);
      max_power = std::max(max_power, m.avg_power);
      power_sum += m.avg_power;
    }
    EXPECT_NEAR(res.energy, energy, 1e-9 * std::max(energy, 1.0));
    EXPECT_NEAR(res.func_rel, frel, 1e-12);
    EXPECT_GE(res.peak_power + 1e-9, max_power);
    EXPECT_LE(res.peak_power, power_sum + 1e-9);
    EXPECT_GT(res.system_mttf, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MetricConsistency, ::testing::Values(5, 15, 40, 80));

/// Priorities and CLR choices are free to change; the energy of a schedule
/// must not depend on priorities at all (same task set, same metrics).
TEST(MetricConsistency, EnergyIsPriorityInvariant) {
  const auto app = exp::make_synthetic_app(18, 0x7717);
  dse::MappingProblem problem(app->context(), dse::QosSpec{1e9, 0.0},
                              dse::ObjectiveMode::EnergyQos);
  util::Rng rng(4);
  sched::ListScheduler scheduler;
  auto cfg = problem.decode(problem.random_genes(rng));
  const double energy = scheduler.run(app->context(), cfg).energy;
  for (int trial = 0; trial < 5; ++trial) {
    for (auto& a : cfg.tasks) a.priority = rng.uniform_int(0, 17);
    EXPECT_NEAR(scheduler.run(app->context(), cfg).energy, energy, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Hypervolume oracle checks (3-D exact vs Monte-Carlo)
// ---------------------------------------------------------------------------

class Hv3dOracle : public ::testing::TestWithParam<int> {};

TEST_P(Hv3dOracle, ExactMatchesMonteCarlo) {
  util::Rng rng(500 + GetParam());
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const std::vector<double> ref{1.0, 1.0, 1.0};
  const double exact = moea::hypervolume(pts, ref);
  const double mc = moea::hypervolume_mc(pts, {0.0, 0.0, 0.0}, ref, 200000, rng);
  EXPECT_NEAR(mc, exact, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Hv3dOracle, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// JSON fuzz-lite round trips
// ---------------------------------------------------------------------------

io::Json random_json(util::Rng& rng, int depth) {
  const int kind = depth <= 0 ? rng.uniform_int(0, 2) : rng.uniform_int(0, 4);
  switch (kind) {
    case 0: return io::Json(rng.uniform(-1e6, 1e6));
    case 1: {
      std::string s;
      const int len = rng.uniform_int(0, 12);
      for (int i = 0; i < len; ++i) {
        s += static_cast<char>(rng.uniform_int(32, 126));
      }
      return io::Json(std::move(s));
    }
    case 2: return rng.chance(0.5) ? io::Json(rng.chance(0.5)) : io::Json(nullptr);
    case 3: {
      io::JsonArray arr;
      const int len = rng.uniform_int(0, 5);
      for (int i = 0; i < len; ++i) arr.push_back(random_json(rng, depth - 1));
      return io::Json(std::move(arr));
    }
    default: {
      io::JsonObject obj;
      const int len = rng.uniform_int(0, 5);
      for (int i = 0; i < len; ++i) {
        std::string key = "k";
        key += std::to_string(i);
        obj.emplace_back(std::move(key), random_json(rng, depth - 1));
      }
      return io::Json(std::move(obj));
    }
  }
}

class JsonFuzz : public ::testing::TestWithParam<int> {};

TEST_P(JsonFuzz, DumpParseDumpIsIdentity) {
  util::Rng rng(900 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const auto v = random_json(rng, 4);
    const std::string once = v.dump();
    const std::string twice = io::Json::parse(once).dump();
    EXPECT_EQ(once, twice);
    // Pretty-printing parses back to the same compact form too.
    EXPECT_EQ(io::Json::parse(v.dump(2)).dump(), once);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// Design-flow invariants across sizes
// ---------------------------------------------------------------------------

class FlowInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlowInvariants, RedIsASupersetOfFeasibleBase) {
  const auto app = exp::make_synthetic_app(GetParam(), 0x7718 + GetParam());
  exp::FlowParams params;
  params.dse.base_ga.population = 24;
  params.dse.base_ga.generations = 12;
  params.dse.red_ga.population = 12;
  params.dse.red_ga.generations = 6;
  params.dse.max_red_seeds = 3;
  util::Rng rng(5);
  const auto flow = exp::run_design_flow(*app, params, rng);
  EXPECT_FALSE(flow.based.empty());
  EXPECT_GE(flow.red.size(), flow.based.size());
  for (const auto& p : flow.red.points()) {
    EXPECT_LE(p.makespan, flow.spec.max_makespan * (1 + 1e-9));
    EXPECT_GE(p.func_rel, flow.spec.min_func_rel - 1e-9);
  }
  // No duplicated configurations in the merged database.
  for (std::size_t i = 0; i < flow.red.size(); ++i) {
    for (std::size_t j = i + 1; j < flow.red.size(); ++j) {
      EXPECT_FALSE(flow.red.point(i).config == flow.red.point(j).config);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlowInvariants, ::testing::Values(8, 16, 24));

}  // namespace
}  // namespace clr
