#pragma once
// Checkpointed run sessions (DESIGN.md §5.12): the layer between the
// resumable engines (dse::DesignTimeDse stages, exp::Runner batches) and the
// on-disk A/B checkpoint store (io/checkpoint.hpp). The engines report
// restartable state at their natural boundaries (GA generations, job
// batches); the session decides WHEN a boundary becomes a durable checkpoint
// (every N boundaries, and always when stopping), validates resume identity
// (param/grid hashes), and folds budget limits into the cooperative stop.
//
// Determinism contract: a run killed at any instant and resumed from its
// newest good checkpoint produces bit-for-bit the uninterrupted run's
// results, at any thread count. Proven by tests/robustness/test_kill_resume.

#include <cstdint>
#include <string>

#include "common/stop.hpp"
#include "experiments/flow.hpp"
#include "experiments/runner.hpp"

namespace clr::exp {

/// Session knobs shared by the explore and runner sessions.
struct SessionControl {
  /// External cooperative stop (signals, deadlines). The session forwards it
  /// into the engines and also stops on its own budget.
  util::StopToken stop;
  /// Checkpoint base path; slots `<path>.a` / `<path>.b` hold the A/B pair.
  /// Empty = no checkpointing (the session still honors stop/budget).
  std::string checkpoint_path;
  /// Checkpoint every N boundaries (explore: GA generations; runner: job
  /// batches of this many jobs). Must be >= 1.
  std::size_t checkpoint_every = 1;
  /// Load the newest good checkpoint and continue from it. Without a
  /// loadable checkpoint the session starts fresh (first run and resumed
  /// run share one command line).
  bool resume = false;
  /// Stop after this many boundaries (0 = unlimited) — the deterministic
  /// interruption lever for tests and incremental runs.
  std::uint64_t step_budget = 0;
};

/// What a session did, beyond the engine outcome itself.
struct ExploreOutcome {
  FlowResult flow;
  /// False when the run was cut short (signal/deadline/budget); `flow` then
  /// holds the partial databases accumulated so far.
  bool complete = true;
  /// True when the run continued from a loaded checkpoint.
  bool resumed = false;
  /// Boundaries passed this session (not counting restored ones).
  std::uint64_t steps = 0;
  std::uint64_t checkpoints_written = 0;
  util::StopReason stop_reason = util::StopReason::None;
};

/// FNV-1a over every result-affecting explore parameter: the app's shape
/// (graph/platform/CLR-space sizes), the flow seed and both GA configs.
/// Deliberately excludes thread counts: they never affect results
/// (DESIGN.md §5.6), so a checkpoint taken at --jobs 8 resumes fine at
/// --jobs 1.
std::uint64_t explore_param_hash(const AppInstance& app, const FlowParams& params,
                                 std::uint64_t flow_seed);

/// Run the design flow under session control. `flow_seed` seeds the flow's
/// master Rng (fresh runs only; resumed runs restore the stream from the
/// checkpoint). Throws std::runtime_error when resuming against a
/// checkpoint whose param hash mismatches.
ExploreOutcome run_explore_session(const AppInstance& app, const FlowParams& params,
                                   std::uint64_t flow_seed, const SessionControl& control);

struct RunnerOutcome {
  RunOutcome run;
  bool resumed = false;
  std::uint64_t steps = 0;
  std::uint64_t checkpoints_written = 0;
  util::StopReason stop_reason = util::StopReason::None;
};

/// Run a prepared (cells already added) Runner grid under session control.
/// checkpoint_every is the job-batch size between checkpoints.
RunnerOutcome run_runner_session(Runner& runner, const SessionControl& control);

}  // namespace clr::exp
