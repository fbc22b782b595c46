#pragma once
// Cooperative run control for the GA engines (DESIGN.md §5.12).
//
// Both HvGa and Nsga2 advance in strict generation steps: all RNG draws
// happen sequentially on the master Rng, so the engine's complete restartable
// state at a generation boundary is {population, archive, engine state,
// generation counter}. GaState captures exactly that; GaRunControl lets a
// session observe every boundary (to checkpoint), request a cooperative stop
// (the current generation always finishes), and resume from a saved state —
// the resumed run continues the RNG stream and population bit-exactly, so an
// interrupted-and-resumed run equals the uninterrupted one.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stop.hpp"
#include "moea/individual.hpp"

namespace clr::moea {

/// Restartable GA engine state at a generation boundary.
///
/// `generations_done == 0` means the initial population has been evaluated
/// but no offspring generation has run yet. `archive` holds the archive
/// members in insertion-compatible order: re-inserting them into a fresh
/// ParetoArchive reproduces the same archive (all members are feasible,
/// mutually non-dominated and deduplicated). `rng_state` is the master Rng's
/// engine state as util::Rng::save_state writes it: the MT19937-64 words and
/// position in std::mt19937_64's stream text (DESIGN.md §5.5).
struct GaState {
  std::uint64_t generations_done = 0;
  std::vector<Individual> population;
  std::vector<Individual> archive;
  std::string rng_state;
};

/// Optional run control for HvGa::run / Nsga2::run. Engines treat a null
/// control pointer (the default) as "run to completion, no callbacks".
struct GaRunControl {
  /// Checked at the top of every generation; when set, the engine returns
  /// the current boundary state with `complete = false` instead of starting
  /// another generation.
  util::StopToken stop;

  /// Invoked at every generation boundary — after the initial evaluation
  /// (generations_done = 0) and after each completed generation — with the
  /// full restartable state. Checkpoint cadence is the caller's business;
  /// the engine reports every boundary.
  std::function<void(const GaState&)> on_boundary;

  /// When non-null, skip initialization and continue from this boundary:
  /// the population (with evaluations/fitness) is restored verbatim, the
  /// archive is rebuilt by in-order re-insertion, the RNG stream is restored
  /// into the caller's `rng`, and the loop starts at `generations_done`.
  /// The boundary callback is not re-fired for the resumed state.
  const GaState* resume = nullptr;
};

}  // namespace clr::moea
