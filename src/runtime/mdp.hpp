#pragma once
// Generic finite Markov decision process and exact solvers (DESIGN.md §5.14).
//
// The stored-design-point selection problem is a proper MDP (the bi-objective
// MDP redundancy-allocation line of work, PAPERS.md): states are (QoS bin,
// active point) pairs, actions are reconfiguration targets, transitions come
// from the AR(1) QoS drift, rewards from the uRA objective. This header keeps
// the *abstract* MDP machinery separate from that binding (mdp_policy.hpp) so
// the solvers can be proven optimal against exhaustive small-instance oracles
// (tests/runtime/test_mdp_oracle.cpp) independent of any QoS semantics.
//
// Transition rows are stored sparsely and shared via `row_of`: the QoS-bin
// kernel's next-state distribution depends only on (bin, action), so the S×A
// table points into B×A distinct rows instead of materializing a dense
// S×A×S tensor (which would not fit for production-sized databases).
//
// The solvers back up through one row-expectation cache: each distinct row's
// expectation of V is summed once and re-summed only after a write to a state
// it lists, so a Q value costs a lookup, and every result is the same double
// a per-(state, action) sum would give (tests/runtime/test_mdp_differential.cpp
// holds them to that bitwise).
//
// All solvers are deterministic: no RNG, fixed sweep orders, and the sweep
// order is a caller-visible knob precisely so tests can prove the fixed point
// does not depend on it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace clr::rt {

/// Sparse next-state distribution: (state, probability) pairs. Probabilities
/// must be >= 0 and sum to 1 (validate() enforces a 1e-9 tolerance).
using MdpRow = std::vector<std::pair<std::uint32_t, double>>;

/// A finite MDP with shared sparse transition rows.
struct Mdp {
  std::size_t num_states = 0;
  std::size_t num_actions = 0;
  /// Row id per (s, a), row-major (s * num_actions + a), into `rows`.
  std::vector<std::uint32_t> row_of;
  /// Distinct next-state distributions.
  std::vector<MdpRow> rows;
  /// Immediate reward per (s, a), row-major.
  std::vector<double> reward;
  /// Optional action mask per (s, a) (empty = every action allowed). Every
  /// state must keep at least one allowed action.
  std::vector<std::uint8_t> allowed;

  bool action_allowed(std::size_t s, std::size_t a) const {
    return allowed.empty() || allowed[s * num_actions + a] != 0;
  }
  const MdpRow& row(std::size_t s, std::size_t a) const {
    return rows[row_of[s * num_actions + a]];
  }

  /// Structural check: sizes consistent, rows stochastic, row ids in range,
  /// at least one allowed action per state. Throws std::invalid_argument.
  void validate() const;
};

/// Gauss-Seidel sweep direction for in-place value iteration.
enum class SweepOrder { Forward, Reverse };

struct ValueIterationOptions {
  double gamma = 0.9;          ///< discount factor in [0, 1)
  double tolerance = 1e-12;    ///< max per-sweep value change to accept
  std::size_t max_sweeps = 100000;
  SweepOrder order = SweepOrder::Forward;
};

/// Solver outcome: greedy policy, value function and convergence telemetry.
struct MdpSolution {
  std::vector<std::uint32_t> policy;
  std::vector<double> value;
  std::size_t iterations = 0;
  /// Final Bellman residual max_s |V(s) - (TV)(s)|.
  double residual = 0.0;
  bool converged = false;
  /// Row expectations the solve summed (each distinct row once, then again
  /// only when read after a write to a state it lists).
  std::uint64_t rows_summed = 0;
};

/// In-place (Gauss-Seidel) value iteration: sweeps update V(s) immediately so
/// later states in the same sweep see the fresh values — typically converging
/// in fewer sweeps than Jacobi iteration. The returned policy is the greedy
/// policy of the final value function.
MdpSolution solve_value_iteration(const Mdp& mdp, const ValueIterationOptions& opts);

/// Howard policy iteration: exact policy evaluation (dense linear solve) +
/// greedy improvement until the policy is stable. The fallback for kernels
/// where value iteration's contraction is slow (gamma close to 1).
MdpSolution solve_policy_iteration(const Mdp& mdp, double gamma,
                                   std::size_t max_rounds = 1000);

/// Exact expected discounted return of a stationary deterministic policy:
/// solves (I - gamma * P_pi) V = R_pi by partial-pivot Gaussian elimination.
/// This is the oracle-grade evaluation the exhaustive enumeration tests use.
std::vector<double> evaluate_stationary_policy(const Mdp& mdp,
                                               std::span<const std::uint32_t> policy,
                                               double gamma);

/// Finite-horizon solution by backward induction: policy[t][s] is the action
/// at step t (t = 0 first), value[s] the optimal expected return over
/// `horizon` steps starting in s.
struct FiniteHorizonSolution {
  std::vector<std::vector<std::uint32_t>> policy;
  std::vector<double> value;
};
FiniteHorizonSolution solve_finite_horizon(const Mdp& mdp, std::size_t horizon,
                                           double gamma = 1.0);

/// Exact expected return of an arbitrary (possibly non-stationary) policy
/// over policy.size() steps, starting from the distribution `initial`
/// (size num_states, sums to 1). Forward propagation of the full state
/// distribution — every enumerated candidate AND the solver's policy are
/// scored by this same routine, so "attains the optimum exactly" is a
/// bit-exact comparison, not a tolerance check.
double evaluate_finite_horizon_policy(const Mdp& mdp,
                                      const std::vector<std::vector<std::uint32_t>>& policy,
                                      std::span<const double> initial, double gamma = 1.0);

}  // namespace clr::rt
