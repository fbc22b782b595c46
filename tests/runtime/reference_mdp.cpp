#include "reference_mdp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace clr::rt::reference {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Row sums one backup of state `s` performs (its allowed actions).
std::uint64_t allowed_count(const Mdp& mdp, std::size_t s) {
  std::uint64_t n = 0;
  for (std::size_t a = 0; a < mdp.num_actions; ++a) n += mdp.action_allowed(s, a) ? 1 : 0;
  return n;
}

}  // namespace

double backup(const Mdp& mdp, const std::vector<double>& value, double gamma, std::size_t s,
              std::uint32_t& best_action) {
  double best = kNegInf;
  std::uint32_t arg = 0;
  for (std::size_t a = 0; a < mdp.num_actions; ++a) {
    if (!mdp.action_allowed(s, a)) continue;
    double expected = 0.0;
    for (const auto& [next, prob] : mdp.row(s, a)) expected += prob * value[next];
    const double q = mdp.reward[s * mdp.num_actions + a] + gamma * expected;
    if (q > best) {
      best = q;
      arg = static_cast<std::uint32_t>(a);
    }
  }
  best_action = arg;
  return best;
}

MdpSolution solve_value_iteration(const Mdp& mdp, const ValueIterationOptions& opts) {
  if (opts.gamma < 0.0 || opts.gamma >= 1.0) {
    throw std::invalid_argument("solve_value_iteration: gamma must be in [0,1)");
  }
  MdpSolution sol;
  sol.value.assign(mdp.num_states, 0.0);
  sol.policy.assign(mdp.num_states, 0);
  std::uint64_t sums_per_pass = 0;
  for (std::size_t s = 0; s < mdp.num_states; ++s) sums_per_pass += allowed_count(mdp, s);

  for (std::size_t sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    double residual = 0.0;
    if (opts.order == SweepOrder::Forward) {
      for (std::size_t s = 0; s < mdp.num_states; ++s) {
        std::uint32_t a = 0;
        const double v = backup(mdp, sol.value, opts.gamma, s, a);
        residual = std::max(residual, std::abs(v - sol.value[s]));
        sol.value[s] = v;
      }
    } else {
      for (std::size_t s = mdp.num_states; s-- > 0;) {
        std::uint32_t a = 0;
        const double v = backup(mdp, sol.value, opts.gamma, s, a);
        residual = std::max(residual, std::abs(v - sol.value[s]));
        sol.value[s] = v;
      }
    }
    sol.rows_summed += sums_per_pass;
    sol.iterations = sweep + 1;
    sol.residual = residual;
    if (residual <= opts.tolerance) {
      sol.converged = true;
      break;
    }
  }

  for (std::size_t s = 0; s < mdp.num_states; ++s) {
    backup(mdp, sol.value, opts.gamma, s, sol.policy[s]);
  }
  sol.rows_summed += sums_per_pass;
  return sol;
}

MdpSolution solve_policy_iteration(const Mdp& mdp, double gamma, std::size_t max_rounds) {
  if (gamma < 0.0 || gamma >= 1.0) {
    throw std::invalid_argument("solve_policy_iteration: gamma must be in [0,1)");
  }
  MdpSolution sol;
  sol.policy.assign(mdp.num_states, 0);
  for (std::size_t s = 0; s < mdp.num_states; ++s) {
    for (std::size_t a = 0; a < mdp.num_actions; ++a) {
      if (mdp.action_allowed(s, a)) {
        sol.policy[s] = static_cast<std::uint32_t>(a);
        break;
      }
    }
  }
  for (std::size_t round = 0; round < max_rounds; ++round) {
    sol.value = evaluate_stationary_policy(mdp, sol.policy, gamma);
    sol.iterations = round + 1;
    bool stable = true;
    double residual = 0.0;
    for (std::size_t s = 0; s < mdp.num_states; ++s) {
      std::uint32_t best = 0;
      const double v = backup(mdp, sol.value, gamma, s, best);
      sol.rows_summed += allowed_count(mdp, s);
      residual = std::max(residual, std::abs(v - sol.value[s]));
      if (best != sol.policy[s]) {
        double incumbent = 0.0;
        for (const auto& [next, prob] : mdp.row(s, sol.policy[s])) {
          incumbent += prob * sol.value[next];
        }
        sol.rows_summed += 1;
        incumbent = mdp.reward[s * mdp.num_actions + sol.policy[s]] + gamma * incumbent;
        if (v > incumbent) {
          sol.policy[s] = best;
          stable = false;
        }
      }
    }
    sol.residual = residual;
    if (stable) {
      sol.converged = true;
      break;
    }
  }
  return sol;
}

}  // namespace clr::rt::reference
