#pragma once
// Restartable exp::Runner grid state (DESIGN.md §5.12).
//
// A header-only POD shared between the Runner (src/experiments) and the
// checkpoint codec (src/io/checkpoint.cpp), as fleet/progress.hpp is for the
// fleet: clr_io encodes and decodes runner checkpoints without linking
// clr_experiments.

#include <cstdint>
#include <vector>

#include "runtime/simulator.hpp"

namespace clr::exp {

/// Which replication jobs of a grid are done, and their stats. Jobs are
/// indexed cell-major (job = cell × replications + rep, the order
/// Runner::run dispatches), and each job's seed depends only on
/// (cell.seed, rep), so a resumed grid aggregates restored + fresh runs into
/// ReplicatedStats that are bit-for-bit the uninterrupted run's. Event traces
/// are never kept here (aggregation never reads them); restored jobs
/// re-surface with empty traces.
struct RunnerProgress {
  /// Runner::grid_hash() of the grid this progress belongs to; resuming
  /// against a different grid is refused.
  std::uint64_t grid_hash = 0;
  std::size_t replications = 0;
  /// One flag per job, 1 = completed.
  std::vector<std::uint8_t> done;
  /// One record per job; meaningful only where done[i] != 0.
  std::vector<rt::RuntimeStats> runs;
};

}  // namespace clr::exp
