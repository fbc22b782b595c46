#pragma once
// Reference oracle for the MDP solvers: value iteration and policy
// iteration's improvement step as they stood before the row-expectation
// cache — one Bellman backup per (state, action) that re-sums the action's
// transition row on every call. test_mdp_differential.cpp holds
// rt::solve_value_iteration and rt::solve_policy_iteration to bitwise
// equality with these (DESIGN.md §5.14).
// Keep them as plain and as unchanged as possible.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/mdp.hpp"

namespace clr::rt::reference {

/// Bellman backup of one state: max over allowed actions of
/// R(s,a) + gamma * E[V(s')]. Returns the best action through `best_action`.
double backup(const Mdp& mdp, const std::vector<double>& value, double gamma, std::size_t s,
              std::uint32_t& best_action);

/// In-place (Gauss-Seidel) value iteration; `rows_summed` counts one row sum
/// per backed-up (state, allowed action).
MdpSolution solve_value_iteration(const Mdp& mdp, const ValueIterationOptions& opts);

/// Howard policy iteration over rt::evaluate_stationary_policy.
MdpSolution solve_policy_iteration(const Mdp& mdp, double gamma, std::size_t max_rounds = 1000);

}  // namespace clr::rt::reference
