#pragma once
// Structural schedule checker of the property tests (test_scheduler.cpp,
// test_heft.cpp, the golden tests). No product path re-checks a schedule.

#include <string>

#include "schedule/scheduler.hpp"

namespace clr::sched {

/// Structural validation of a schedule against its configuration: precedence
/// + communication delays respected, no overlap on any PE, makespan equals
/// the last finish time. Returns an empty string when valid, else a
/// diagnostic message.
std::string validate_schedule(const EvalContext& ctx, const Configuration& cfg,
                              const ScheduleResult& result);

}  // namespace clr::sched
