#pragma once
// NSGA-II with constraint-domination — the general-purpose MOEA used for the
// ReD secondary optimization and available as an ablation alternative to the
// hypervolume-fitness GA.

#include <vector>

#include "moea/generational.hpp"

namespace clr::moea {

/// Fast non-dominated sort (constraint-domination). Returns fronts of
/// indices; also writes Individual::rank.
std::vector<std::vector<std::size_t>> non_dominated_sort(std::vector<Individual>& pop);

/// Crowding distance within one front (writes Individual::crowding).
void assign_crowding(std::vector<Individual>& pop, const std::vector<std::size_t>& front);

class Nsga2 {
 public:
  explicit Nsga2(GaParams params) : params_(params) {}

  /// Run the optimization through run_generations (moea/generational.hpp).
  /// `seeds` (optional) are injected into the initial population after
  /// repair. All RNG draws happen sequentially on `rng`, then the pending
  /// genomes are evaluated as one batch on `pool` (or params().threads) —
  /// results are bit-for-bit identical at any thread count. `control`
  /// (optional) adds cooperative stop, per-generation boundary callbacks and
  /// resume-from-checkpoint; see moea/control.hpp.
  MoeaResult run(const Problem& problem, util::Rng& rng,
                 const std::vector<std::vector<int>>& seeds = {},
                 util::ThreadPool* pool = nullptr,
                 const GaRunControl* control = nullptr) const;

  const GaParams& params() const { return params_; }

 private:
  GaParams params_;
};

}  // namespace clr::moea
