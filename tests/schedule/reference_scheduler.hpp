#pragma once
// Reference oracle for the schedule kernels: the original pointer-based list
// scheduler, kept verbatim from before ListScheduler ran on CompiledGraph. It
// re-derives per-task metrics through MetricsModel and walks the graph's
// edge-id lists on every call. test_differential.cpp and
// test_batch_differential.cpp hold the scalar and batched CompiledGraph paths
// to bitwise equality with it, and bench/schedule_kernel times both kernels
// against it (DESIGN.md §5.9). Keep it as plain and as unchanged as possible.

#include "schedule/scheduler.hpp"

namespace clr::sched {

/// ListScheduler's semantics, evaluated the pointer-based way.
class ReferenceScheduler {
 public:
  ScheduleResult run(const EvalContext& ctx, const Configuration& cfg) const;
};

}  // namespace clr::sched
