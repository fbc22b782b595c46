#pragma once
// End-to-end hybrid flow (Fig. 3): derive a QoS reference from the space,
// run the design-time stages (BaseD, ReD), and evaluate run-time policies
// over the stored databases under the Monte-Carlo QoS process.

#include "dse/design_time.hpp"
#include "experiments/app.hpp"
#include "runtime/mdp_policy.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/simulator.hpp"

namespace clr::exp {

/// Knobs for the full flow; defaults match the paper's §5.1 setup scaled to
/// bench-friendly run times (override total_cycles for the full 1e6 runs).
struct FlowParams {
  dse::DseConfig dse;
  dse::ObjectiveMode mode = dse::ObjectiveMode::EnergyQos;
  /// Random chromosomes sampled to estimate the achievable (S, F) ranges
  /// when deriving the QoS reference corner.
  std::size_t spec_samples = 64;
  /// The SSPEC corner as a quantile of sampled makespans (loose: most of the
  /// space is feasible; the run-time QoS process then tightens it).
  double makespan_quantile = 0.85;
  /// The FSPEC corner as a quantile of sampled reliabilities.
  double func_rel_quantile = 0.10;
};

struct FlowResult {
  dse::QosSpec spec;
  dse::DesignDb based;  ///< Pareto-front-only database ([11]-style)
  dse::DesignDb red;    ///< BaseD + reconfiguration-cost-aware extras
};

/// The QoS-requirement box the run-time process samples from: from the global
/// reference corner (loosest demand) to the best point the BaseD database
/// achieves (tightest satisfiable demand). Using this box for *both*
/// databases keeps BaseD-vs-ReD comparisons apples-to-apples, and it makes
/// ReD's tolerance-degraded extras genuinely feasible under loose demands.
dse::MetricRanges qos_ranges(const FlowResult& flow);

/// The QoS box for a database on its own (loaded from disk, so no BaseD front
/// or spec at hand): its metric ranges, widened on the loose side by a
/// quarter band like qos_ranges().
dse::MetricRanges db_qos_ranges(const dse::DesignDb& db);

/// Estimate a workable QoS reference corner (max SSPEC / min FSPEC of Eq. 5)
/// by sampling random configurations.
dse::QosSpec derive_spec(const sched::EvalContext& ctx, dse::ObjectiveMode mode,
                         std::size_t samples, double makespan_quantile,
                         double func_rel_quantile, util::Rng& rng);

/// Run design-time DSE (both stages) for one application.
FlowResult run_design_flow(const AppInstance& app, const FlowParams& params, util::Rng& rng);

/// Which run-time policy to evaluate. Mdp is the offline-planned tabular
/// policy of DESIGN.md §5.14 (value iteration over the discretized QoS
/// process), evaluated beside the learned agents.
enum class PolicyKind { Baseline, Ura, Aura, Mdp };

struct RuntimeEvalParams {
  PolicyKind kind = PolicyKind::Ura;
  double p_rc = 0.5;
  rt::AuraPolicy::Params aura{};
  /// Offline pre-training budget for AuRA's prior knowledge (cycles/sweeps).
  double pretrain_cycles = 5e4;
  std::size_t pretrain_sweeps = 4;
  bool pretrain = true;
  rt::SimulationParams sim{};
  rt::QosProcessParams qos{};
  /// Run-time fault environment. Defaults to all-rates-zero: the fault seed
  /// is then never drawn and the evaluation is bit-for-bit the fault-free one.
  flt::FaultParams faults{};
  /// Per-PE fault profiles (index = PeId). Empty: evaluate_policy derives
  /// them from the app's platform (AVF / βp); the app-less
  /// evaluate_policy_with path substitutes uniform defaults.
  std::vector<flt::PeFaultProfile> fault_profiles;
  /// Offline MDP planning knobs (PolicyKind::Mdp only).
  rt::MdpPolicyParams mdp{};
  /// Wrap the evaluated policy in a PrefetchPolicy (speculative bitstream
  /// staging). Never changes which points are picked — only the stall/hidden
  /// split in RuntimeStats; every pre-existing field stays bit-identical.
  bool prefetch = false;
  rt::PrefetchParams prefetch_params{};
};

/// Evaluate one policy over one database. `ranges` defines the QoS process
/// (pass the same ranges when comparing databases so both see the same
/// requirement distribution); `seed` fixes both the QoS sequence and any
/// pre-training randomness.
rt::RuntimeStats evaluate_policy(const AppInstance& app, const dse::DesignDb& db,
                                 const dse::MetricRanges& ranges,
                                 const RuntimeEvalParams& params, std::uint64_t seed);

/// Same, but against a prebuilt DrcMatrix (a `.clrdb` snapshot's persisted
/// table, or one shared across a sweep) — skips the O(n²·tasks) rebuild while
/// keeping the app-derived fault profiles and CLR coverage. Bit-identical to
/// the overload above when `drc` equals the matrix it would build.
rt::RuntimeStats evaluate_policy(const AppInstance& app, const dse::DesignDb& db,
                                 const rt::DrcMatrix& drc, const dse::MetricRanges& ranges,
                                 const RuntimeEvalParams& params, std::uint64_t seed);

/// Same evaluation against a prebuilt reconfiguration-cost table. The cost
/// matrix only depends on (db, platform, implementations), so grid sweeps
/// build it once per database and share it across every policy/pRC/seed cell
/// (see exp::Runner); this overload is also the path that needs no
/// AppInstance at all (tests, what-if cost tables). `clr_space` gives fault
/// injection the struck task's CLR coverage; nullptr falls back to
/// FaultParams::fallback_coverage. `mdp_table` optionally supplies a
/// prebuilt MDP plan for PolicyKind::Mdp (fleet sweeps share one table
/// across devices; snapshots persist them) — nullptr builds it on the fly,
/// bit-identically, since planning is deterministic.
rt::RuntimeStats evaluate_policy_with(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                                      const dse::MetricRanges& ranges,
                                      const RuntimeEvalParams& params, std::uint64_t seed,
                                      const rel::ClrSpace* clr_space = nullptr,
                                      const rt::MdpTable* mdp_table = nullptr);

/// The evaluation itself, against a caller-owned QosProcess and
/// RuntimeSimulator. Both are stateless across runs, so fleet workers build
/// them once and reuse them for every device, bit-identically;
/// evaluate_policy_with builds them from `ranges` and `params`. A plan built
/// here for PolicyKind::Mdp uses qos.ranges().
rt::RuntimeStats evaluate_policy_on(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                                    const rt::QosProcess& qos, const rt::RuntimeSimulator& sim,
                                    const RuntimeEvalParams& params, std::uint64_t seed,
                                    const rel::ClrSpace* clr_space = nullptr,
                                    const rt::MdpTable* mdp_table = nullptr);

}  // namespace clr::exp
