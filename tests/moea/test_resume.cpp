// Resume determinism for both GA engines (DESIGN.md §5.12): a run stopped at
// any generation boundary and resumed from the reported GaState must be
// bit-identical to the uninterrupted run — population, archive and RNG stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "moea/control.hpp"
#include "moea/hvga.hpp"
#include "moea/nsga2.hpp"

namespace clr::moea {
namespace {

/// Bi-objective problem with front f1 + f2 = 9 (gene x in [0,9]).
class LineProblem : public Problem {
 public:
  std::size_t num_genes() const override { return 1; }
  int domain_size(std::size_t) const override { return 10; }
  std::size_t num_objectives() const override { return 2; }
  Evaluation evaluate(const std::vector<int>& genes) const override {
    const double x = genes[0];
    return Evaluation{{x, 9.0 - x}, 0.0};
  }
};

/// Two-gene variant with a constraint, so rank/crowding/violation all carry
/// real information through the round-trip.
class ConstrainedProblem : public Problem {
 public:
  std::size_t num_genes() const override { return 2; }
  int domain_size(std::size_t) const override { return 8; }
  std::size_t num_objectives() const override { return 2; }
  Evaluation evaluate(const std::vector<int>& genes) const override {
    const double x = genes[0];
    const double y = genes[1];
    return Evaluation{{x + y, 7.0 - x + y}, x + y > 10.0 ? x + y - 10.0 : 0.0};
  }
};

void expect_same_individuals(const std::vector<Individual>& a, const std::vector<Individual>& b,
                             const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].genes, b[i].genes) << what << " genes, slot " << i;
    ASSERT_EQ(a[i].eval.objectives.size(), b[i].eval.objectives.size()) << what << " slot " << i;
    for (std::size_t k = 0; k < a[i].eval.objectives.size(); ++k) {
      EXPECT_DOUBLE_EQ(a[i].eval.objectives[k], b[i].eval.objectives[k])
          << what << " objective " << k << ", slot " << i;
    }
    EXPECT_DOUBLE_EQ(a[i].eval.violation, b[i].eval.violation) << what << " slot " << i;
    EXPECT_DOUBLE_EQ(a[i].fitness, b[i].fitness) << what << " slot " << i;
    EXPECT_EQ(a[i].rank, b[i].rank) << what << " slot " << i;
    EXPECT_DOUBLE_EQ(a[i].crowding, b[i].crowding) << what << " slot " << i;
  }
}

GaParams small_params() {
  GaParams params;
  params.population = 12;
  params.generations = 8;
  return params;
}

// Run `engine.run` uninterrupted, then re-run stopping at every possible
// boundary and resuming from the captured state; every resumed run must
// reproduce the uninterrupted result bit-exactly.
template <typename Engine, typename Result>
void check_resume_equivalence(const Engine& engine, const Problem& prob, std::uint64_t seed) {
  util::Rng full_rng(seed);
  std::uint64_t boundaries = 0;
  GaRunControl count_control;
  count_control.on_boundary = [&](const GaState&) { ++boundaries; };
  const Result full = engine.run(prob, full_rng, {}, {}, &count_control);
  ASSERT_TRUE(full.complete);
  // init (generations_done = 0) plus one per generation.
  ASSERT_EQ(boundaries, engine.params().generations + 1);

  for (std::uint64_t stop_at = 0; stop_at <= engine.params().generations; ++stop_at) {
    SCOPED_TRACE("stop at boundary " + std::to_string(stop_at));

    // First leg: run until the chosen boundary, capture state, stop.
    util::StopSource stop;
    GaState saved;
    GaRunControl first_control;
    first_control.stop = stop.token();
    first_control.on_boundary = [&](const GaState& s) {
      if (s.generations_done == stop_at) {
        saved = s;
        stop.request_stop();
      }
    };
    util::Rng first_rng(seed);
    const Result first = engine.run(prob, first_rng, {}, {}, &first_control);
    ASSERT_EQ(saved.generations_done, stop_at);
    ASSERT_FALSE(saved.rng_state.empty());
    if (stop_at < engine.params().generations) {
      EXPECT_FALSE(first.complete);
    } else {
      EXPECT_TRUE(first.complete);  // stop requested after the final boundary
    }

    // Second leg: resume from the captured state with a throwaway-seeded RNG
    // (resume must restore the true stream) and run to completion. The
    // resumed boundary itself is not re-fired.
    GaRunControl resume_control;
    resume_control.resume = &saved;
    std::uint64_t resumed_boundaries = 0;
    resume_control.on_boundary = [&](const GaState& s) {
      ++resumed_boundaries;
      EXPECT_GT(s.generations_done, stop_at);
    };
    util::Rng resume_rng(seed ^ 0x9E3779B97F4A7C15ULL);
    const Result resumed = engine.run(prob, resume_rng, {}, {}, &resume_control);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed_boundaries, engine.params().generations - stop_at);

    expect_same_individuals(full.population, resumed.population, "population");
    expect_same_individuals(full.archive.members(), resumed.archive.members(), "archive");
  }
}

TEST(GaResume, HvGaResumedRunIsBitIdenticalAtEveryBoundary) {
  LineProblem prob;
  HvGa ga(small_params(), {10.0, 10.0}, {1.0, 1.0});
  check_resume_equivalence<HvGa, HvGa::Result>(ga, prob, 41);
}

TEST(GaResume, HvGaResumePreservesBestFitness) {
  ConstrainedProblem prob;
  HvGa ga(small_params(), {12.0, 12.0}, {1.0, 1.0});
  util::Rng full_rng(99);
  const auto full = ga.run(prob, full_rng);

  util::StopSource stop;
  GaState saved;
  GaRunControl control;
  control.stop = stop.token();
  control.on_boundary = [&](const GaState& s) {
    if (s.generations_done == 3) {
      saved = s;
      stop.request_stop();
    }
  };
  util::Rng rng(99);
  (void)ga.run(prob, rng, {}, {}, &control);

  GaRunControl resume;
  resume.resume = &saved;
  util::Rng resume_rng(1);
  const auto resumed = ga.run(prob, resume_rng, {}, {}, &resume);
  EXPECT_DOUBLE_EQ(full.best_fitness, resumed.best_fitness);
}

TEST(GaResume, Nsga2ResumedRunIsBitIdenticalAtEveryBoundary) {
  ConstrainedProblem prob;
  Nsga2 ga(small_params());
  check_resume_equivalence<Nsga2, MoeaResult>(ga, prob, 43);
}

TEST(GaResume, StopBeforeFirstGenerationStillReportsInitBoundary) {
  // A pre-stopped token must still evaluate the initial population and
  // report the generations_done = 0 boundary — otherwise a run killed
  // immediately after launch would leave nothing to resume from.
  LineProblem prob;
  Nsga2 ga(small_params());
  util::StopSource stop;
  stop.request_stop();
  GaRunControl control;
  control.stop = stop.token();
  std::vector<std::uint64_t> seen;
  control.on_boundary = [&](const GaState& s) { seen.push_back(s.generations_done); };
  util::Rng rng(7);
  const auto result = ga.run(prob, rng, {}, {}, &control);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(result.population.size(), ga.params().population);
}

TEST(GaResume, ArchiveRebuildsByInOrderReinsertion) {
  // The saved archive must round-trip through plain re-insertion into a
  // fresh ParetoArchive — the property the checkpoint codec relies on.
  LineProblem prob;
  HvGa ga(small_params(), {10.0, 10.0}, {1.0, 1.0});
  GaState last;
  GaRunControl control;
  control.on_boundary = [&](const GaState& s) { last = s; };
  util::Rng rng(17);
  const auto result = ga.run(prob, rng, {}, {}, &control);
  ASSERT_TRUE(result.complete);

  ParetoArchive rebuilt;
  for (const auto& member : last.archive) rebuilt.insert(member);
  expect_same_individuals(result.archive.members(), rebuilt.members(), "rebuilt archive");
}

TEST(GaResume, ResumeStateFromHigherThreadCountMatches) {
  // A checkpoint taken under a multi-threaded evaluation resumes bit-exactly
  // under single-threaded evaluation (and vice versa): thread count is a
  // pure performance knob.
  ConstrainedProblem prob;
  GaParams params = small_params();
  Nsga2 ga(params);

  util::Rng full_rng(53);
  const auto full = ga.run(prob, full_rng);

  util::ThreadPool pool(4);

  util::StopSource stop;
  GaState saved;
  GaRunControl control;
  control.stop = stop.token();
  control.on_boundary = [&](const GaState& s) {
    if (s.generations_done == 4) {
      saved = s;
      stop.request_stop();
    }
  };
  util::Rng rng(53);
  (void)ga.run(prob, rng, {}, &pool, &control);
  ASSERT_EQ(saved.generations_done, 4u);

  GaRunControl resume;
  resume.resume = &saved;
  util::Rng resume_rng(2);
  const auto resumed = ga.run(prob, resume_rng, {}, {}, &resume);
  ASSERT_TRUE(resumed.complete);
  expect_same_individuals(full.population, resumed.population, "population");
  expect_same_individuals(full.archive.members(), resumed.archive.members(), "archive");
}

}  // namespace
}  // namespace clr::moea
