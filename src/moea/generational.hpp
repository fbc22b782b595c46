#pragma once
// The generational loop both GA engines run (DESIGN.md §5.6).
//
// HvGa and Nsga2 differ only in how they rank individuals; everything else
// is this one loop: seeding and random fill, resume from a boundary state,
// the stop check, the generate phase (every RNG draw sequential on the
// master Rng), one evaluation batch per generation and archive insertion.
// An engine supplies three steps: its tournament preference, what it
// computes for a freshly evaluated individual, and its survivor selection.

#include <functional>
#include <vector>

#include "moea/archive.hpp"
#include "moea/control.hpp"
#include "moea/operators.hpp"
#include "moea/problem.hpp"

namespace clr::util {
class ThreadPool;
}

namespace clr::moea {

/// GA result: final population plus the feasible non-dominated archive
/// accumulated over all generations.
struct MoeaResult {
  std::vector<Individual> population;
  ParetoArchive archive;
  /// False when a cooperative stop cut the run short at a generation
  /// boundary (the state reported via GaRunControl::on_boundary resumes it).
  bool complete = true;
};

/// What one engine adds to the shared loop.
struct GenerationSteps {
  /// Trace span names of one generation and of its evaluation batch.
  const char* generation_span = nullptr;
  const char* eval_span = nullptr;
  /// Tournament preference: true when `a` beats `b`.
  std::function<bool(const Individual& a, const Individual& b)> prefer;
  /// Runs on every freshly evaluated individual before the archive copies
  /// it (HvGa's fitness); may be empty.
  std::function<void(Individual&)> evaluated;
  /// Survivor selection: reduce `candidates` (the parents, then the
  /// offspring) to GaParams::population survivors. It also runs once on the
  /// evaluated initial population, where nothing is dropped: every member
  /// must survive in place, with whatever the tournament reads assigned.
  std::function<void(std::vector<Individual>& candidates)> select;
};

/// Run the generate-then-evaluate loop for `params.generations` generations.
/// Evaluation runs on `pool`, or on a private pool of `params.threads` when
/// it is null; results are identical at any thread count. `seeds` are
/// repaired into the initial population before the random fill. `control`
/// (optional) adds cooperative stop, boundary callbacks and resume.
MoeaResult run_generations(const Problem& problem, util::Rng& rng, const GaParams& params,
                           const std::vector<std::vector<int>>& seeds, util::ThreadPool* pool,
                           const GaRunControl* control, const GenerationSteps& steps);

}  // namespace clr::moea
