#pragma once
// Monte-Carlo discrete-event simulation of the run-time adaptation loop
// (paper §5.1): QoS requirements change at exponentially-distributed event
// times; at each event the policy picks the next stored design point; energy
// integrates the active point's Japp per application cycle; reconfiguration
// costs accumulate per transition. Episodes of fixed length drive the AuRA
// value updates.
//
// With a fault scenario attached (flt::FaultScenario) the timeline
// additionally carries transient soft errors and permanent PE wear-out, and
// the loop gains degraded-mode semantics:
//
//   - a transient fault on a PE the active point uses is recovered with the
//     probability the struck task's CLR configuration buys
//     (flt::recovery_probability); recovery charges a latency (downtime) and
//     a re-execution energy premium, a miss counts an unrecovered failure;
//   - a permanent fault retires the PE and every stored point bound to it
//     (flt::PlatformHealth); if the active point dies, the simulator walks an
//     explicit fallback chain: (1) the policy's best pick among feasible
//     points on alive PEs, (2) a relaxed-QoS fallback whose violation is
//     within FaultParams::qos_tolerance, (3) a safe-mode sentinel that
//     accrues downtime until some later requirement becomes coverable (or
//     the run ends — e.g. when no PE survives).
//
// RuntimeStats accordingly grows availability, MTTR, unrecovered-failure and
// QoS-violation-time accounting; these fields stay zero (and the event loop
// bit-for-bit identical) when no scenario is attached or all rates are 0.

#include <cstddef>
#include <vector>

#include "dse/design_db.hpp"
#include "faults/fault_model.hpp"
#include "runtime/policy.hpp"
#include "runtime/qos_process.hpp"
#include "runtime/stat_table.hpp"

namespace clr::rt {

struct SimulationParams {
  /// Total simulated application execution cycles (paper: one million).
  double total_cycles = 1e6;
  /// Episode length for value-function updates (paper: "typically a
  /// thousand ... application execution cycles").
  double episode_cycles = 1000.0;
  /// Record the first N events into the trace (0 = no trace) — Fig. 6 uses
  /// the first 50 QoS changes.
  std::size_t trace_events = 0;
};

/// One traced timeline event: a QoS change, or — under fault injection — a
/// fault arrival.
struct EventRecord {
  double time = 0.0;        ///< cycles
  std::size_t point = 0;    ///< active database index after the event
  double drc = 0.0;         ///< cost paid for this transition (0 = stayed)
  bool reconfigured = false;
  bool infeasible = false;  ///< no stored point satisfied the new spec
  /// Fault carried by this event (None for plain QoS changes).
  flt::FaultKind fault = flt::FaultKind::None;
  /// The active point violates the active QoS spec after this event (or the
  /// system sits in safe mode).
  bool violation = false;
  /// The system is in the tier-3 safe-mode sentinel after this event.
  bool safe_mode = false;
};

/// Aggregated simulation outcome.
struct RuntimeStats {
  double total_cycles = 0.0;
  std::size_t num_events = 0;
  std::size_t num_reconfigs = 0;
  std::size_t num_infeasible_events = 0;
  /// Time-weighted mean Japp of the active configuration (the paper's Javg).
  double avg_energy = 0.0;
  /// Total dRC paid over the run.
  double total_reconfig_cost = 0.0;
  /// Mean dRC per QoS-change event (the paper's average reconfiguration cost).
  double avg_reconfig_cost = 0.0;
  /// Largest single transition cost (the ΔdRC annotation of Fig. 6).
  double max_drc = 0.0;

  // --- QoS-violation accounting (also active without fault injection) ---
  /// Cycles during which the active point violated the active requirement
  /// (infeasible events kept the least-violating point) or the system sat in
  /// safe mode.
  double qos_violation_time = 0.0;

  // --- fault / degraded-mode accounting (zero without a fault scenario) ---
  std::size_t num_transient_faults = 0;      ///< transient arrivals (all PEs)
  std::size_t num_recovered_transients = 0;  ///< hits on the active point, recovered
  std::size_t num_unrecovered_failures = 0;  ///< hits the CLR coverage missed
  std::size_t num_permanent_faults = 0;      ///< PEs permanently lost
  std::size_t num_evacuations = 0;           ///< fallback-chain tier-1/2 migrations
  std::size_t num_safe_mode_entries = 0;     ///< fallback-chain tier-3 drops
  /// Cycles of service interruption: transient recovery latencies, permanent
  /// evacuation migrations (their dRC) and safe-mode residence.
  double downtime = 0.0;
  /// 1 - downtime / total_cycles, clamped to [0, 1].
  double availability = 1.0;
  /// Mean downtime per repair action (transient recoveries + evacuations);
  /// 0 when no repair happened. Safe-mode residence is excluded: it is
  /// unrepaired outage, not repair work.
  double mttr = 0.0;

  // --- reconfiguration-port accounting (DESIGN.md §5.14) ---
  /// Cycles the service actually stalled loading bitstreams. Without
  /// prefetching this equals total_reconfig_cost exactly (the historic folded
  /// accounting); with prefetching the staged progress is subtracted.
  /// Invariant: total_reconfig_cost == reconfig_stall_time +
  /// prefetch_hidden_time, always.
  double reconfig_stall_time = 0.0;
  /// Cycles of reconfiguration latency hidden by speculative staging.
  double prefetch_hidden_time = 0.0;
  std::size_t prefetch_hits = 0;    ///< reconfigs that found their target staged
  std::size_t prefetch_misses = 0;  ///< reconfigs that cancelled a wrong stage
  /// 1 - (downtime + reconfig_stall_time) / total_cycles, clamped to [0, 1]:
  /// availability of the *service*, which reconfiguration stalls also
  /// interrupt (availability above only charges fault handling).
  double service_availability = 1.0;

  std::vector<EventRecord> trace;
};

// Every stat member has a row in runtime/stat_table.hpp (the trace is no stat).
#define CLR_STAT_BYTES(stat, fold, ...) +stat_bytes<Fold::fold, decltype(RuntimeStats::stat)>()
static_assert(sizeof(RuntimeStats) ==
              sizeof(std::vector<EventRecord>) CLR_RUNTIME_STATS(CLR_STAT_BYTES));
#undef CLR_STAT_BYTES

/// The run-time adaptation loop of Fig. 3 (right half).
class RuntimeSimulator {
 public:
  explicit RuntimeSimulator(SimulationParams params = {}) : params_(params) {}

  /// Simulate `policy` over `db` against the QoS process. The initial point
  /// is the policy's choice for the first sampled spec (no cost charged).
  RuntimeStats run(const dse::DesignDb& db, AdaptationPolicy& policy, const QosProcess& qos,
                   util::Rng& rng) const;

  /// Same, with fault injection: `scenario` supplies the fault environment,
  /// per-PE profiles and the dedicated fault-stream seed (kept separate from
  /// `rng` so the QoS sequence is identical across fault rates). nullptr —
  /// or a scenario with all rates 0 — reproduces the fault-free run exactly.
  RuntimeStats run(const dse::DesignDb& db, AdaptationPolicy& policy, const QosProcess& qos,
                   util::Rng& rng, const flt::FaultScenario* scenario) const;

  const SimulationParams& params() const { return params_; }

 private:
  SimulationParams params_;
};

/// Offline Monte-Carlo pre-training of an AuRA agent (§4.3.2 "Prior
/// knowledge"): runs `sweeps` simulations of `cycles_per_sweep` cycles with
/// learning enabled, then freezes learning. Returns the trained values.
/// Pre-training is always fault-free: prior knowledge reflects the nominal
/// platform.
std::vector<double> pretrain_aura(AuraPolicy& policy, const dse::DesignDb& db,
                                  const QosProcess& qos, double cycles_per_sweep,
                                  std::size_t sweeps, util::Rng& rng);

}  // namespace clr::rt
