#pragma once
// The three clrbench workloads (see NOTES.md for why each exists):
//
//   explore           design-time flow (BaseD then ReD) on two synthetic apps
//   fleet_mdp_faults  run_fleet: MDP policy + prefetch + transient/permanent faults
//   fleet_aura        run_fleet: pre-trained AuRA, no faults, no prefetch
//
// Each runs in its own process with one worker thread and returns a Report.

#include <cstdint>
#include <string>

#include "experiments/flow.hpp"
#include "harness.hpp"

namespace clr::bench {

/// Task counts of the two synthetic applications: one at or below the
/// batched schedule kernel's 64-task lockstep limit, one above it.
inline constexpr std::size_t kSmallTasks = 40;
inline constexpr std::size_t kLargeTasks = 90;

/// Design-flow parameters exactly as `clrtool explore` uses them (pop 64,
/// gens 60, ReD defaults), on one thread.
exp::FlowParams explore_flow_params();

/// App seed of both synthetic apps. The workload seed varies the design
/// flow's RNG (explore) and the device streams (fleets), not the task graphs:
/// a different graph moves the work itself by 15-20%, which would make every
/// time track the seed rather than the code.
inline constexpr std::uint64_t kAppSeed = 1;

/// The design-flow RNG seed `clrtool explore --seed S` uses; for S = kAppSeed
/// the explore workload at seed S runs exactly `clrtool explore --seed 1`.
inline std::uint64_t flow_seed(std::uint64_t seed) { return seed ^ 0xD5EULL; }

/// Write a fleet workload's design database the way `clrtool explore --tasks
/// N --seed 1 --jobs 1 --db-out F.clrdb` does (the files are byte-identical):
/// DesignDb + ClrSpace + DrcMatrix, no MDP section, durably saved. Runs in
/// its own process, never timed.
void generate_artifact(const std::string& workload, const std::string& path);

Report run_explore(const RunOptions& opt);
Report run_fleet_workload(const RunOptions& opt);

}  // namespace clr::bench
