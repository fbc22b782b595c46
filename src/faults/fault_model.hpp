#pragma once
// Run-time fault-injection subsystem (ISSUE 3): merges the two fault classes
// the cross-layer reliability literature says must be modeled *jointly*
// (Aliee et al., PAPERS.md) into the discrete-event timeline of the run-time
// adaptation loop:
//
//   - transient soft errors: per-PE Poisson arrivals whose rate is the base
//     environment SER scaled by each PE's architectural vulnerability factor
//     (the Table-2 heterogeneity axis), survived or not according to the
//     active CLR technique's detection/recovery coverage;
//   - permanent wear-out faults: one Weibull-distributed death time per PE
//     (shape = the PE type's aging profile βp, scale calibrated so the mean
//     equals the configured MTBF), after which the PE — and every stored
//     design point bound to it — is gone for the rest of the run.
//
// This is deliberately a *timeline-level* model, distinct from
// sim::MonteCarloValidator which dices per-attempt SEUs inside one
// application execution to validate the analytical Table-2/3 metrics. Here faults strike
// the platform underneath the adaptation policy, shrinking the feasible
// design-point set (PlatformHealth) and forcing the simulator's degraded-mode
// fallback chain (see runtime/simulator.hpp).
//
// Determinism contract (DESIGN.md §5.6): all fault randomness flows through
// one dedicated Rng seeded per replication, separate from the QoS stream —
// with rates = 0 the injector draws nothing and the simulation is bit-for-bit
// identical to a fault-free run at any job count.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dse/design_db.hpp"
#include "platform/platform.hpp"
#include "reliability/clr_config.hpp"

namespace clr::flt {

/// Per-PE fault characteristics (the heterogeneity factors of §3.1).
struct PeFaultProfile {
  /// Soft-error-rate multiplier for this PE (the platform model's AVF — the
  /// fraction of raw upsets the micro-architecture lets through).
  double ser_scale = 1.0;
  /// Weibull shape of the PE's wear-out process (the PE type's βp).
  double weibull_shape = 2.0;
};

/// Knobs of the run-time fault environment. All rates are per application
/// execution cycle, the time unit of the runtime simulator. Both classes
/// default to off, which keeps every pre-existing experiment bit-identical.
struct FaultParams {
  /// Base transient soft-error arrival rate per PE per cycle (scaled by each
  /// PE's ser_scale). 0 disables transient injection.
  double transient_rate = 0.0;
  /// Mean cycles to permanent wear-out per PE (Weibull mean). 0 disables
  /// permanent faults.
  double pe_mtbf = 0.0;
  /// Service interruption charged per *recovered* transient fault (detection
  /// + state restore + re-execution), in cycles of downtime.
  double recovery_latency = 25.0;
  /// Energy charged per recovered transient, as a multiple of the active
  /// point's per-cycle energy over the recovery latency (re-execution work).
  double reexec_energy_factor = 1.0;
  /// Tier-2 degraded-mode band: after a permanent fault, a surviving point
  /// whose relative QoS violation is within this tolerance is acceptable as a
  /// relaxed-QoS fallback; beyond it the system drops to safe mode.
  double qos_tolerance = 0.10;
  /// Recovery probability used when the scenario carries no CLR space to
  /// look the struck task's configuration up in. Defaults to 0 — an
  /// unprotected task (HW None, ASW None) recovers nothing.
  double fallback_coverage = 0.0;

  bool enabled() const { return transient_rate > 0.0 || pe_mtbf > 0.0; }

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

/// A full fault scenario for one simulation run: the environment knobs, the
/// per-PE profiles (index = PeId) and the dedicated fault-stream seed.
struct FaultScenario {
  FaultParams params;
  /// One profile per PE; empty lets the simulator substitute uniform
  /// profiles sized to the database's largest referenced PE id.
  std::vector<PeFaultProfile> profiles;
  std::uint64_t seed = 0;
  /// CLR configuration space the stored points' clr_index values refer to —
  /// the lookup that gives each struck task its recovery coverage. Not owned;
  /// nullptr falls back to FaultParams::fallback_coverage for every task.
  const rel::ClrSpace* clr_space = nullptr;
};

/// What kind of fault (if any) an event carries.
enum class FaultKind : std::uint8_t { None = 0, Transient, Permanent };

/// One sampled fault arrival on the runtime timeline.
struct FaultEvent {
  double time = 0.0;
  plat::PeId pe = 0;
  FaultKind kind = FaultKind::None;
};

/// Per-PE fault profiles straight from a platform model (AVF -> ser_scale,
/// beta_aging -> weibull_shape), indexed by PeId.
std::vector<PeFaultProfile> profiles_from_platform(const plat::Platform& platform);

/// `n` identical default profiles (tests, databases without a platform).
std::vector<PeFaultProfile> uniform_profiles(std::size_t n);

/// Probability that a transient fault striking a task protected by `cfg` is
/// recovered (result still correct): spatial masking by the HW layer,
/// in-place correction by the ASW layer, or detection by the ASW layer
/// followed by re-execution when an SSW technique (retry/checkpoint) is
/// present to act on it. Mirrors the masking chain of sim::MonteCarloValidator.
double recovery_probability(const rel::ClrConfig& cfg);

/// Mutable platform/database health state for one simulation run: which PEs
/// are still alive, and — derived — which stored design points are still
/// executable (a point dies with the first of its PEs). Holds only alive
/// flags: a PE's points are looked up in the database when it dies, at most
/// once per PE and run. The database must outlive it.
class PlatformHealth {
 public:
  /// Throws std::invalid_argument when a stored point binds a task to a PE
  /// id >= num_pes (DesignDb::pe_bound() > num_pes).
  PlatformHealth(const dse::DesignDb& db, std::size_t num_pes);

  std::size_t num_pes() const { return pe_alive_.size(); }
  bool pe_alive(plat::PeId pe) const { return pe_alive_.at(pe); }
  std::size_t num_alive_pes() const { return num_alive_pes_; }
  bool all_pes_alive() const { return num_alive_pes_ == pe_alive_.size(); }

  bool point_alive(std::size_t point) const { return point_alive_.at(point); }
  std::size_t num_alive_points() const { return num_alive_points_; }
  /// Alive-mask over stored points — the feasibility filter the adaptation
  /// policies and DrcMatrix lookups consume.
  const std::vector<bool>& point_mask() const { return point_alive_; }

  /// Permanently retire a PE and every stored point bound to it. Idempotent.
  void kill_pe(plat::PeId pe);

 private:
  const dse::DesignDb* db_;
  std::vector<bool> pe_alive_;
  std::vector<bool> point_alive_;
  std::size_t num_alive_pes_ = 0;
  std::size_t num_alive_points_ = 0;
};

/// Deterministic merged fault timeline: per-PE exponential transient arrivals
/// plus one pre-sampled Weibull permanent death time per PE. All sampling
/// uses the injector's own Rng in a fixed order, so one seed reproduces one
/// timeline regardless of thread count or caller interleaving.
class FaultInjector {
 public:
  FaultInjector(const FaultParams& params, std::vector<PeFaultProfile> profiles,
                std::uint64_t seed);

  /// Time of the earliest pending fault (+infinity when none will ever fire).
  double next_time() const;

  /// Consume and return the earliest pending fault. Permanent faults retire
  /// the PE inside the injector (no further transients on it); transient
  /// faults reschedule that PE's next arrival. Ties break permanent-first,
  /// then lowest PE id. Throws std::logic_error when nothing is pending.
  FaultEvent pop();

  /// The dedicated fault-stream Rng — also used by the simulator for the
  /// struck-task choice and the coverage dice, so the whole fault story
  /// derives from one seed.
  util::Rng& rng() { return rng_; }

  const FaultParams& params() const { return params_; }
  std::size_t num_pes() const { return profiles_.size(); }

  /// Weibull scale parameter such that the distribution's mean equals
  /// `mean` for the given shape (mean = scale * Gamma(1 + 1/shape)).
  static double weibull_scale_for_mean(double mean, double shape);

  /// Inverse-CDF Weibull sample.
  static double sample_weibull(util::Rng& rng, double shape, double scale);

 private:
  double sample_transient_gap(std::size_t pe);

  FaultParams params_;
  std::vector<PeFaultProfile> profiles_;
  util::Rng rng_;
  std::vector<double> next_transient_;  ///< per PE; +inf when disabled/dead
  std::vector<double> permanent_at_;    ///< per PE; +inf when disabled/spent
};

}  // namespace clr::flt
