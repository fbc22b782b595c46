#pragma once
// Reference oracle for the run-time decision path: the decision code as it
// stood before the DesignDb metric columns and the policies' scratch buffers
// — a FEAS vector grown by push_back over the stored DesignPoints, Algorithm
// 1's evaluate-and-pick over freshly allocated per-candidate vectors, the
// Baseline hypervolume pick with per-call corner/scale vectors, and the MDP
// lookup with its per-point fallback loop. test_decision_differential.cpp
// holds the production policies to bitwise equality with these on fuzzed
// databases; keep them as plain and as unchanged as possible.

#include <cstddef>
#include <vector>

#include "dse/design_db.hpp"
#include "runtime/drc_matrix.hpp"
#include "runtime/mdp_policy.hpp"
#include "runtime/policy.hpp"

namespace clr::rt::reference {

/// Total relative QoS violation of point `i` (DesignDb::violation_of).
double violation_of(const dse::DesignDb& db, std::size_t i, const dse::QosSpec& spec);

/// Alive point of least violation, lowest index on ties
/// (DesignDb::least_violating); throws std::logic_error when none is alive.
std::size_t least_violating(const dse::DesignDb& db, const dse::QosSpec& spec,
                            const std::vector<bool>* point_alive);

/// Indices of points satisfying `spec`, skipping points the mask marks dead.
std::vector<std::size_t> feasible_indices(const dse::DesignDb& db, const dse::QosSpec& spec,
                                          const std::vector<bool>* point_alive);

/// uRA / AuRA evaluation core (UraPolicy::evaluate_and_pick): Algorithm 1
/// over FEAS, then the guarded value lookahead when `state_values` is given
/// and gamma > 0.
class Ura {
 public:
  Ura(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc);

  Decision evaluate_and_pick(std::size_t current, const dse::QosSpec& spec,
                             const std::vector<bool>* mask,
                             const std::vector<double>* state_values, double gamma,
                             double guard) const;

 private:
  double global_reward(std::size_t point, double paid_drc) const;

  const dse::DesignDb* db_;
  const DrcMatrix* drc_;
  double p_rc_;
  double global_energy_lo_ = 0.0;
  double global_energy_hi_ = 0.0;
  double global_drc_hi_ = 0.0;
};

/// BaselinePolicy::select: best signed hypervolume w.r.t. the QoS corner.
Decision baseline_select(const dse::DesignDb& db, const DrcMatrix& drc, std::size_t current,
                         const dse::QosSpec& spec, const std::vector<bool>* mask);

/// MdpPolicy::select: table lookup with the value-ranked fallback.
Decision mdp_decide(const dse::DesignDb& db, const DrcMatrix& drc, const MdpTable& table,
                    std::size_t current, const dse::QosSpec& spec,
                    const std::vector<bool>* mask);

}  // namespace clr::rt::reference
