#pragma once
// The run-time statistics, listed once (DESIGN.md §5.15).
//
// One row per field of rt::RuntimeStats. Every consumer — the fleet's
// per-device conversion and block folds, the fleet means, the replicated
// summaries, the checkpoint codecs and the report keys — expands
// CLR_RUNTIME_STATS with a macro of its own that uses the columns it needs.
// The structs stay hand-written; static_asserts beside each declaration tie
// its stat members to the rows that name them, so a row or a member added
// on one side only fails to compile.
//
// Columns of X(stat, fold, device, block, mean, replicated):
//   stat        the rt::RuntimeStats member; also the stat's report name
//   fold        how fleet blocks fold it (Fold below)
//   device      its fleet::DeviceResult member
//   block       its fleet::BlockSum member
//   mean        its fleet::FleetSummary member (block total / devices)
//   replicated  its exp::ReplicatedStats member
// `none` marks a struct that does not carry the stat.
//
// Row order is the RunnerState wire order. FleetState stores the BlockSum
// members grouped by fold (kFoldOrder), each group in row order.
//
// This header has no dependencies, so fleet/progress.hpp stays free of the
// simulator's.

#include <cstddef>
#include <cstdint>
#include <type_traits>

// clang-format off
#define CLR_RUNTIME_STATS(X)                                                                                                              \
  X(total_cycles,             Sum,   none,                 none,                     none,                      none)                     \
  X(num_events,               Count, events,               events,                   none,                      num_events)               \
  X(num_reconfigs,            Count, reconfigs,            reconfigs,                none,                      num_reconfigs)            \
  X(num_infeasible_events,    Count, infeasible_events,    infeasible_events,        none,                      num_infeasible_events)    \
  X(avg_energy,               Sum,   avg_energy,           energy_sum,               mean_energy,               avg_energy)               \
  X(total_reconfig_cost,      Sum,   total_reconfig_cost,  reconfig_cost_sum,        mean_reconfig_cost,        total_reconfig_cost)      \
  X(avg_reconfig_cost,        Sum,   none,                 none,                     none,                      avg_reconfig_cost)        \
  X(max_drc,                  Max,   max_drc,              max_drc,                  none,                      max_drc)                  \
  X(qos_violation_time,       Sum,   qos_violation_time,   violation_time_sum,       mean_violation_time,       qos_violation_time)       \
  X(num_transient_faults,     Count, transient_faults,     transient_faults,         none,                      num_transient_faults)     \
  X(num_recovered_transients, Count, recovered_transients, recovered_transients,     none,                      num_recovered_transients) \
  X(num_unrecovered_failures, Count, unrecovered_failures, unrecovered_failures,     none,                      num_unrecovered_failures) \
  X(num_permanent_faults,     Count, permanent_faults,     permanent_faults,         none,                      num_permanent_faults)     \
  X(num_evacuations,          Count, evacuations,          evacuations,              none,                      num_evacuations)          \
  X(num_safe_mode_entries,    Count, safe_mode_entries,    safe_mode_entries,        none,                      num_safe_mode_entries)    \
  X(downtime,                 Sum,   downtime,             downtime_sum,             mean_downtime,             downtime)                 \
  X(availability,             Sum,   availability,         availability_sum,         mean_availability,         availability)             \
  X(mttr,                     Sum,   mttr,                 mttr_sum,                 mean_mttr,                 mttr)                     \
  X(reconfig_stall_time,      Sum,   reconfig_stall_time,  stall_time_sum,           mean_stall_time,           reconfig_stall_time)      \
  X(prefetch_hidden_time,     Sum,   prefetch_hidden_time, hidden_time_sum,          mean_hidden_time,          prefetch_hidden_time)     \
  X(prefetch_hits,            Count, prefetch_hits,        prefetch_hits,            none,                      prefetch_hits)            \
  X(prefetch_misses,          Count, prefetch_misses,      prefetch_misses,          none,                      prefetch_misses)          \
  X(service_availability,     Sum,   service_availability, service_availability_sum, mean_service_availability, service_availability)
// clang-format on

/// CLR_STAT_IF(column)(code) is `code` when the column names a member and
/// nothing when it is `none`.
#define CLR_STAT_IF(column) CLR_STAT_SECOND(CLR_STAT_CAT(CLR_STAT_NONE_, column), CLR_STAT_KEEP, )
#define CLR_STAT_NONE_none ~, CLR_STAT_DROP
#define CLR_STAT_CAT(a, b) a##b
#define CLR_STAT_SECOND(...) CLR_STAT_SECOND_I(__VA_ARGS__)
#define CLR_STAT_SECOND_I(a, b, ...) b
#define CLR_STAT_KEEP(...) __VA_ARGS__
#define CLR_STAT_DROP(...)

namespace clr::rt {

/// How a stat folds over devices and blocks.
enum class Fold {
  Count,  ///< 64-bit integer, summed
  Sum,    ///< double, summed in ascending device/block order (bit-stable)
  Max,    ///< double, maximum
};

/// The order of the fold groups in a FleetState block.
inline constexpr Fold kFoldOrder[] = {Fold::Count, Fold::Sum, Fold::Max};

/// The stored type of a stat: counts are integers, sums and maxima doubles.
template <Fold F>
using StatValue = std::conditional_t<F == Fold::Count, std::uint64_t, double>;

/// Fold one value into an aggregate.
template <Fold F>
constexpr void fold_stat(StatValue<F>& into, StatValue<F> x) {
  if constexpr (F == Fold::Max) {
    if (x > into) into = x;
  } else {
    into += x;
  }
}

/// sizeof a stat member of type T; refuses a type that does not match the
/// fold. The static_asserts beside each struct add these up.
template <Fold F, typename T>
consteval std::size_t stat_bytes() {
  static_assert(F == Fold::Count ? std::is_unsigned_v<T> && sizeof(T) == 8
                                 : std::is_same_v<T, double>,
                "a count must be a 64-bit unsigned integer, a sum or max a double");
  return sizeof(T);
}

}  // namespace clr::rt
