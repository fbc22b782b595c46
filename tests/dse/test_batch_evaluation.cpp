// Differential test of the design-time GAs' one evaluation path: the
// engines evaluate only through moea::BatchEvaluator, which hands
// Problem::evaluate_batch fixed 8-genome chunks. MappingProblem's and
// RedProblem's evaluate_batch (the SIMD batch kernel behind the schedule
// memo) must give the same Evaluation bits as per-genome evaluate() (the
// scalar kernel), on fuzzed genomes, at every batch size including tail
// chunks shorter than 8 lanes, and with duplicates inside one batch. Each
// side gets its own MappingProblem, so neither reads the other's memo.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "dse/design_time.hpp"
#include "experiments/app.hpp"
#include "experiments/flow.hpp"
#include "moea/eval_cache.hpp"

namespace clr::dse {
namespace {

void expect_same_bits(const moea::Evaluation& got, const moea::Evaluation& want,
                      const std::string& where) {
  ASSERT_EQ(got.objectives.size(), want.objectives.size()) << where;
  for (std::size_t k = 0; k < got.objectives.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objectives[k]),
              std::bit_cast<std::uint64_t>(want.objectives[k]))
        << where << " objective " << k;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.violation),
            std::bit_cast<std::uint64_t>(want.violation))
      << where << " violation";
}

/// `count` genomes: fresh random ones, mutated copies of earlier ones (so
/// chunks mix near-duplicates) and exact repeats (duplicates in one batch).
std::vector<std::vector<int>> fuzz_genomes(const moea::Problem& problem, util::Rng& rng,
                                           std::size_t count) {
  std::vector<std::vector<int>> genomes;
  while (genomes.size() < count) {
    const std::size_t kind = genomes.empty() ? 0 : rng.index(4);
    if (kind <= 1) {
      genomes.push_back(problem.random_genes(rng));
    } else if (kind == 2) {
      std::vector<int> mutated = genomes[rng.index(genomes.size())];
      const std::size_t locus = rng.index(mutated.size());
      mutated[locus] = rng.uniform_int(0, problem.domain_size(locus) - 1);
      genomes.push_back(std::move(mutated));
    } else {
      genomes.push_back(genomes[rng.index(genomes.size())]);
    }
  }
  return genomes;
}

/// Evaluate `genomes` through batched_problem.evaluate_batch in spans of
/// `span` (the last one shorter) and compare each against
/// scalar_problem.evaluate().
void expect_batch_matches_scalar(const moea::Problem& batched_problem,
                                 const moea::Problem& scalar_problem,
                                 const std::vector<std::vector<int>>& genomes, std::size_t span,
                                 const std::string& where) {
  std::vector<moea::Individual> group(genomes.size());
  std::vector<moea::Individual*> ptrs;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    group[i].genes = genomes[i];
    ptrs.push_back(&group[i]);
  }
  for (std::size_t begin = 0; begin < ptrs.size(); begin += span) {
    const std::size_t count = std::min(span, ptrs.size() - begin);
    batched_problem.evaluate_batch({ptrs.data() + begin, count});
  }
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    expect_same_bits(group[i].eval, scalar_problem.evaluate(genomes[i]),
                     where + " span " + std::to_string(span) + " genome " + std::to_string(i));
  }
}

struct Case {
  std::size_t tasks;
  std::uint64_t seed;
  ObjectiveMode mode;
};

const Case kCases[] = {
    {6, 11, ObjectiveMode::EnergyQos},
    {14, 4242, ObjectiveMode::EnergyQos},
    {20, 3, ObjectiveMode::CspQos},
    {33, 8, ObjectiveMode::EnergyLifetime},
};

std::string name_of(const Case& c) {
  std::string name = std::to_string(c.tasks);
  name += " tasks seed ";
  name += std::to_string(c.seed);
  return name;
}

/// A tight-but-reachable spec, so evaluations mix feasible and violating.
QosSpec spec_for(const exp::AppInstance& app, ObjectiveMode mode, std::uint64_t seed) {
  util::Rng rng(seed);
  return exp::derive_spec(app.context(), mode, 32, 0.5, 0.5, rng);
}

TEST(BatchEvaluationDifferential, MappingProblemBatchEqualsPerGenomeEvaluate) {
  for (const Case& c : kCases) {
    const auto app = exp::make_synthetic_app(c.tasks, c.seed);
    const QosSpec spec = spec_for(*app, c.mode, c.seed);
    util::Rng rng(c.seed ^ 0xBA7C4ULL);
    for (const std::size_t span : {1u, 3u, 8u, 13u, 29u}) {
      const MappingProblem batched(app->context(), spec, c.mode);
      const MappingProblem scalar(app->context(), spec, c.mode);
      const auto genomes = fuzz_genomes(batched, rng, 29);
      expect_batch_matches_scalar(batched, scalar, genomes, span, name_of(c));
    }
  }
}

TEST(BatchEvaluationDifferential, RedProblemBatchEqualsPerGenomeEvaluate) {
  for (const Case& c : kCases) {
    const auto app = exp::make_synthetic_app(c.tasks, c.seed);
    const QosSpec spec = spec_for(*app, ObjectiveMode::EnergyQos, c.seed);
    const recfg::ReconfigModel reconfig(app->platform(), app->impls());
    const DseConfig cfg;
    util::Rng rng(c.seed ^ 0x8EDULL);

    // A small base set of random points stands in for a BaseD front.
    const MappingProblem base_problem(app->context(), spec, ObjectiveMode::EnergyQos);
    const DesignTimeDse flow(base_problem, reconfig, cfg);
    DesignDb base;
    for (int i = 0; i < 5; ++i) base.add(flow.make_point(base_problem.random_genes(rng)));
    const recfg::DrcTable drc_table(reconfig, base.configurations());

    for (const std::size_t span : {1u, 5u, 8u, 17u, 29u}) {
      const MappingProblem batched_mapping(app->context(), spec, ObjectiveMode::EnergyQos);
      const MappingProblem scalar_mapping(app->context(), spec, ObjectiveMode::EnergyQos);
      const DesignPoint& seed = base.point(span % base.size());
      const RedProblem batched(batched_mapping, drc_table, seed, base.ranges(), cfg);
      const RedProblem scalar(scalar_mapping, drc_table, seed, base.ranges(), cfg);
      const auto genomes = fuzz_genomes(batched, rng, 29);
      expect_batch_matches_scalar(batched, scalar, genomes, span, name_of(c));
    }
  }
}

TEST(BatchEvaluationDifferential, BatchEvaluatorRunsTheKernelOncePerDistinctGenome) {
  // Through the evaluator (8-genome chunks, with and without a pool) every
  // result still equals evaluate(), and a duplicate inside one batch costs no
  // kernel run: the evaluator collapses it before the memo could.
  const auto app = exp::make_synthetic_app(14, 4242);
  const QosSpec spec = spec_for(*app, ObjectiveMode::EnergyQos, 5);
  util::ThreadPool pool(3);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const MappingProblem batched(app->context(), spec, ObjectiveMode::EnergyQos);
    const MappingProblem scalar(app->context(), spec, ObjectiveMode::EnergyQos);
    util::Rng rng(77);
    const auto genomes = fuzz_genomes(batched, rng, 45);
    std::vector<moea::Individual> group(genomes.size());
    std::vector<moea::Individual*> ptrs;
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      group[i].genes = genomes[i];
      ptrs.push_back(&group[i]);
    }
    moea::BatchEvaluator(batched, p).evaluate(ptrs);

    std::vector<std::vector<int>> distinct;
    for (std::size_t i = 0; i < genomes.size(); ++i) {
      std::string where = p == nullptr ? "no pool" : "pool";
      where += " genome ";
      where += std::to_string(i);
      expect_same_bits(group[i].eval, scalar.evaluate(genomes[i]), where);
      if (std::find(distinct.begin(), distinct.end(), genomes[i]) == distinct.end()) {
        distinct.push_back(genomes[i]);
      }
    }
    ASSERT_LT(distinct.size(), genomes.size());  // the fuzz did repeat genomes
    EXPECT_EQ(batched.schedule_runs(), distinct.size());
    EXPECT_EQ(scalar.schedule_runs(), distinct.size());
  }
}

}  // namespace
}  // namespace clr::dse
