#pragma once
// Hypervolume-fitness GA — the design-time solver of Eq. (5) / Fig. 4a.
//
// Each individual's scalar fitness is its signed hypervolume relative to the
// reference point R (the QoS constraint corner): feasible points earn the
// volume they sweep toward R; infeasible points earn a negative penalty
// proportional to how far they exceed R. Maximizing the population's summed
// hypervolume pushes the population onto a spread Pareto front, which is
// accumulated in a feasible non-dominated archive (the BaseD database).

#include "moea/generational.hpp"

namespace clr::moea {

class HvGa {
 public:
  /// @param reference the R point of Fig. 4a, one entry per objective
  ///        (minimization; feasibility means objective <= reference).
  /// @param scale per-objective normalization (1/range); used to make the
  ///        signed hypervolume comparable across heterogeneous units.
  HvGa(GaParams params, std::vector<double> reference, std::vector<double> scale)
      : params_(params), reference_(std::move(reference)), scale_(std::move(scale)) {}

  struct Result {
    std::vector<Individual> population;
    ParetoArchive archive;
    double best_fitness = 0.0;
    /// False when a cooperative stop cut the run short at a generation
    /// boundary (the state reported via GaRunControl::on_boundary resumes it).
    bool complete = true;
  };

  /// Run the optimization through run_generations (moea/generational.hpp):
  /// all RNG draws happen sequentially on `rng`, then the pending genomes
  /// are evaluated as one batch on `pool` (or params().threads) — results
  /// are bit-for-bit identical at any thread count. `control` (optional)
  /// adds cooperative stop, per-generation boundary callbacks and
  /// resume-from-checkpoint; see moea/control.hpp.
  Result run(const Problem& problem, util::Rng& rng,
             const std::vector<std::vector<int>>& seeds = {},
             util::ThreadPool* pool = nullptr,
             const GaRunControl* control = nullptr) const;

  const GaParams& params() const { return params_; }
  const std::vector<double>& reference() const { return reference_; }

 private:
  double fitness_of(const Evaluation& eval) const;

  GaParams params_;
  std::vector<double> reference_;
  std::vector<double> scale_;
};

}  // namespace clr::moea
