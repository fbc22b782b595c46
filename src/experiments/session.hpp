#pragma once
// Checkpointed run sessions (DESIGN.md §5.12): the layer between the
// resumable engines (dse::DesignTimeDse stages, exp::Runner grids,
// fleet::run_fleet) and the on-disk A/B checkpoint store
// (io/checkpoint.hpp). The engines only report their restartable state at
// each boundary (a GA generation, a finished replication job, a finished
// fleet block); one Session skeleton decides which boundary becomes a
// durable checkpoint, validates resume identity and folds the step budget
// into the cooperative stop, for all three.
//
// Determinism contract: a run killed at any instant and resumed from its
// newest good checkpoint produces bit-for-bit the uninterrupted run's
// results, at any thread count. Proven by tests/robustness/test_kill_resume.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/stop.hpp"
#include "experiments/flow.hpp"
#include "experiments/runner.hpp"
#include "io/checkpoint.hpp"
#include "io/snapshot.hpp"

namespace clr::exp {

/// Session knobs shared by the explore, runner and fleet sessions.
struct SessionControl {
  /// External cooperative stop (signals, deadlines). Each boundary forwards
  /// it into the session's own stop, the one token the engine polls.
  util::StopToken stop;
  /// Checkpoint base path; slots `<path>.a` / `<path>.b` hold the A/B pair.
  /// Empty = no checkpointing (the session still honors stop/budget).
  std::string checkpoint_path;
  /// Write a checkpoint at every Nth boundary, and at every boundary after a
  /// stop has been seen. Must be >= 1.
  std::size_t checkpoint_every = 1;
  /// Load the newest good checkpoint and continue from it. Without a
  /// loadable checkpoint the session starts fresh (first run and resumed
  /// run share one command line).
  bool resume = false;
  /// Stop after this many boundaries this session (0 = unlimited): GA
  /// generations, replication jobs or fleet blocks. The deterministic
  /// interruption lever for tests and incremental runs.
  std::uint64_t step_budget = 0;
};

/// What a session did, beyond the engine outcome itself. Every session
/// outcome carries these fields.
struct SessionReport {
  /// True when the run continued from a loaded checkpoint.
  bool resumed = false;
  /// Boundaries passed this session (not counting restored ones).
  std::uint64_t steps = 0;
  std::uint64_t checkpoints_written = 0;
  util::StopReason stop_reason = util::StopReason::None;
};

/// The skeleton every session runs on. Opening it checks the control, opens
/// and probes the A/B store and, on resume, reads the newest slot, all
/// before any work: an unwritable path or an unreadable slot fails first.
class Session {
 public:
  /// Throws std::invalid_argument on a bad control and io::SnapshotError on
  /// an unwritable path or an unreadable slot. Implicit, so each
  /// run_*_session takes a SessionControl as well as a session opened
  /// earlier (clrtool opens it ahead of an inline explore). Neither copyable
  /// nor movable: the engine's stop token points into it.
  Session(const SessionControl& control);

  /// The token the engine polls: the step budget arms it, and every
  /// boundary forwards the external stop into it.
  util::StopToken stop() { return stop_.token(); }

  /// The newest slot to resume from; nullptr on a fresh start.
  const io::SnapshotView* checkpoint() const { return slot_ ? &slot_->view() : nullptr; }

  /// Refuse to resume a checkpoint taken under another identity hash
  /// (std::runtime_error).
  void check_identity(std::uint64_t stored, std::uint64_t computed) const;

  /// Count one engine boundary. When it becomes a checkpoint (every Nth, and
  /// every one after a stop has been seen), save `image(sequence)`.
  void boundary(const std::function<std::string(std::uint64_t sequence)>& image);

  /// Fill the fields every outcome shares.
  void report(SessionReport& out) const;

 private:
  SessionControl control_;
  util::StopSource stop_;
  std::optional<io::CheckpointStore> store_;
  std::optional<io::Snapshot> slot_;
  SessionReport report_;
};

struct ExploreOutcome : SessionReport {
  FlowResult flow;
  /// False when the run was cut short (signal/deadline/budget); `flow` then
  /// holds the partial databases accumulated so far.
  bool complete = true;
};

/// FNV-1a over every result-affecting explore parameter: the app's shape
/// (graph/platform/CLR-space sizes), the flow seed and both GA configs.
/// Deliberately excludes thread counts: they never affect results
/// (DESIGN.md §5.6), so a checkpoint taken at --jobs 8 resumes fine at
/// --jobs 1.
std::uint64_t explore_param_hash(const AppInstance& app, const FlowParams& params,
                                 std::uint64_t flow_seed);

/// Run the design flow under `session`, one boundary per GA generation.
/// `flow_seed` seeds the flow's master Rng (fresh runs only; resumed runs
/// restore the stream from the checkpoint). Throws std::runtime_error when
/// resuming against a checkpoint whose param hash mismatches.
ExploreOutcome run_explore_session(const AppInstance& app, const FlowParams& params,
                                   std::uint64_t flow_seed, Session&& session);

struct RunnerOutcome : SessionReport {
  RunOutcome run;
};

/// Run a prepared (cells already added) Runner grid under `session`, one
/// boundary per finished replication job.
RunnerOutcome run_runner_session(Runner& runner, Session&& session);

}  // namespace clr::exp
