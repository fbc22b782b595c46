#pragma once
// Design/compile-time exploration (paper §4.2, Fig. 3 left):
//
//  1. System-level MOEA — a hypervolume-fitness GA (Eq. 5 / Fig. 4a) over the
//     CLR-integrated mapping space, producing the Pareto-front database
//     **BaseD** (the [11]-style baseline).
//  2. Reconfiguration-cost-aware MOEA (**ReD**, §4.2.1) — for every BaseD
//     point, a secondary MOEA seeded at that point searches for additional
//     non-dominant points within a QoS/performance degradation tolerance
//     whose *average dRC to the optimal set* is lower, i.e. points that are
//     cheap to reach at run-time (the F''_Op of Fig. 4b).

#include <functional>

#include "common/stop.hpp"
#include "dse/design_db.hpp"
#include "dse/mapping_problem.hpp"
#include "moea/control.hpp"
#include "moea/hvga.hpp"
#include "moea/nsga2.hpp"
#include "reconfig/reconfig.hpp"

namespace clr::dse {

/// Parameters for the two design-time stages. GA operator probabilities
/// default to the paper's §5.1 values (0.7 / 0.03 / tournament 5).
struct DseConfig {
  moea::GaParams base_ga{.population = 80, .generations = 120};
  moea::GaParams red_ga{.population = 40, .generations = 40};
  /// Makespan degradation tolerated by a ReD point vs its seed, as a
  /// fraction of the BaseD front's makespan band. Kept moderate: an extra
  /// must satisfy (almost) the same QoS demands as its seed, otherwise it is
  /// never feasible exactly when the run-time needs a cheap target
  /// (Fig. 4b: F''_Op meets the constraints of S').
  double tol_makespan_band = 0.35;
  /// Functional-reliability degradation tolerated vs the seed, as a fraction
  /// of the BaseD front's reliability band.
  double tol_func_rel_band = 0.35;
  /// Relative energy (R) degradation tolerated by a ReD point vs its seed.
  /// This is where most of the slack lives: paying some energy for cheap
  /// reachability is the ReD trade.
  double tol_energy = 0.25;
  /// Extra points kept per BaseD seed from EACH end of the secondary front
  /// (cheapest average dRC, lowest energy).
  std::size_t extras_per_seed = 2;
  /// Cap on BaseD seeds explored by the ReD stage (storage constraint input
  /// of Fig. 3); all are explored when the front is smaller.
  std::size_t max_red_seeds = 16;
  /// Random configurations sampled to calibrate the Eq. (5) reference point
  /// and objective scales.
  std::size_t calibration_samples = 64;
  /// Seed the system-level GA with a HEFT-constructed mapping (upward-rank
  /// priorities + EFT-greedy binding, unprotected CLR). Accelerates
  /// convergence on the makespan-tight corner of the front.
  bool heft_seeding = true;
  /// Storage budget for the BaseD database (Fig. 3 "Storage Constraints"):
  /// when the raw Pareto front is larger it is thinned to this many points,
  /// keeping objective-space extremes and the best-spread (crowding) points.
  std::size_t max_base_points = 28;
  /// Evaluation concurrency for both stages (and the calibration sampling):
  /// 0 = std::thread::hardware_concurrency(). Results are identical at any
  /// thread count — see DESIGN.md "Parallel evaluation & determinism".
  std::size_t threads = 0;
};

/// The secondary ReD optimization problem: minimize (avg dRC to the BaseD
/// set, Japp) subject to the global QoS spec and the per-seed degradation
/// tolerances.
class RedProblem : public moea::Problem {
 public:
  /// @param drc_table average dRC to the BaseD set (a DrcTable over its
  ///        configurations, shared by every seed's run); throws
  ///        std::invalid_argument when it is empty.
  RedProblem(const MappingProblem& mapping, const recfg::DrcTable& drc_table,
             const DesignPoint& seed, const MetricRanges& base_ranges, const DseConfig& cfg);

  std::size_t num_genes() const override { return mapping_->num_genes(); }
  int domain_size(std::size_t locus) const override { return mapping_->domain_size(locus); }
  std::size_t num_objectives() const override { return 2; }
  moea::Evaluation evaluate(const std::vector<int>& genes) const override;

  /// Stages the batch's schedule metrics through the SIMD batch kernel
  /// (MappingProblem::stage_metrics), then builds each Evaluation from them
  /// with the per-genome tail (dRC table + tolerance constraints) — no second
  /// schedule-memo lookup. Bit-identical to sequential evaluate() calls.
  void evaluate_batch(std::span<moea::Individual* const> batch) const override;

 private:
  /// Average dRC of a genome, decoded into thread-local scratch.
  double average_drc(const std::vector<int>& genes) const;
  /// The shared tail of evaluate() and evaluate_batch().
  moea::Evaluation evaluation_of(const std::vector<int>& genes, const ScheduleMetrics& res) const;

  const MappingProblem* mapping_;
  const recfg::DrcTable* drc_table_;
  DesignPoint seed_;
  MetricRanges base_ranges_;
  const DseConfig* cfg_;
};

/// Restartable state of the BaseD stage at a GA generation boundary
/// (DESIGN.md §5.12). The Eq. (5) reference/scale calibration happens before
/// the GA and consumes RNG draws, so it is captured here; everything after
/// the GA (front thinning, DesignDb construction) is deterministic
/// recomputation from the archive.
struct BaseProgress {
  std::vector<double> ref;
  std::vector<double> scale;
  moea::GaState ga;
};

/// Run control for the resumable BaseD stage.
struct BaseControl {
  util::StopToken stop;
  /// Invoked at every GA generation boundary with the full restartable state.
  std::function<void(const BaseProgress&)> on_boundary;
  /// When non-null, continue from this boundary (calibration is skipped; the
  /// RNG stream is restored from the saved GA state).
  const BaseProgress* resume = nullptr;
};

/// Restartable state of the ReD stage: which BaseD seed's secondary GA is in
/// flight (`seed_pos` indexes the deterministic seed schedule), that GA's
/// boundary state, and the ReD database accumulated from all *completed*
/// seeds. A checkpoint taken at a finished GA's final boundary resumes into
/// a no-op GA run whose extras are re-collected deterministically
/// (DesignDb::add deduplicates), so no boundary is unsafe to crash on.
struct RedProgress {
  std::size_t seed_pos = 0;
  moea::GaState ga;
  DesignDb red;
};

/// Run control for the resumable ReD stage.
struct RedControl {
  util::StopToken stop;
  std::function<void(const RedProgress&)> on_boundary;
  const RedProgress* resume = nullptr;
};

/// Result of a resumable stage: the (possibly partial) database and whether
/// the stage ran to completion or was cut short by a cooperative stop.
struct StageOutcome {
  DesignDb db;
  bool complete = true;
};

/// Orchestrates both design-time stages for one application.
class DesignTimeDse {
 public:
  DesignTimeDse(const MappingProblem& problem, const recfg::ReconfigModel& reconfig,
                DseConfig cfg = {});

  /// Stage 1: Pareto-front database (BaseD).
  DesignDb run_base(util::Rng& rng) const;

  /// Stage 2: BaseD plus the reconfiguration-cost-aware extras (ReD).
  DesignDb run_red(const DesignDb& base, util::Rng& rng) const;

  /// Stage 1 with cooperative stop / checkpoint boundaries / resume. With a
  /// default-constructed control this is bit-identical to run_base; an
  /// interrupted run resumed from the last reported BaseProgress is
  /// bit-identical to the uninterrupted run.
  StageOutcome run_base_resumable(util::Rng& rng, const BaseControl& control) const;

  /// Stage 2, resumable; same contract as run_base_resumable.
  StageOutcome run_red_resumable(const DesignDb& base, util::Rng& rng,
                                 const RedControl& control) const;

  /// Convenience: both stages.
  struct Result {
    DesignDb based;
    DesignDb red;
  };
  Result run(util::Rng& rng) const;

  /// Build a fully-evaluated design point from a configuration (always
  /// re-runs the scheduler; prefer the chromosome overload inside the flow).
  DesignPoint make_point(const sched::Configuration& cfg, bool extra = false) const;

  /// Build a design point from a chromosome via the problem's schedule memo:
  /// archived points were already evaluated during the GA run, so this is a
  /// cache hit instead of a redundant scheduler invocation.
  DesignPoint make_point(const std::vector<int>& genes, bool extra = false) const;

  const DseConfig& config() const { return cfg_; }

 private:
  const MappingProblem* problem_;
  const recfg::ReconfigModel* reconfig_;
  DseConfig cfg_;
};

}  // namespace clr::dse
