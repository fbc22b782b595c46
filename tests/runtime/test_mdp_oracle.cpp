// Exhaustive small-instance oracle for the MDP solvers (DESIGN.md §5.14).
//
// The optimality claim behind rt::MdpPolicy is proven here the strong way:
// on fuzzed tiny instances every policy is enumerated and scored by the SAME
// exact evaluation routine that scores the solver's policy, so "the solver is
// optimal" is a bit-exact comparison against a brute-force maximum — not a
// tolerance check against a reimplementation that could share a bug.
//
//   - all stationary deterministic policies are enumerated and
//     evaluate_stationary_policy-scored; the value-iteration and
//     policy-iteration policies must attain the per-state maximum exactly
//     (an optimal policy maximizes the value in every state simultaneously);
//   - the converged Bellman residual is independently recomputed and checked
//     against the solver's tolerance;
//   - Gauss-Seidel sweep order (Forward vs Reverse) must not change the
//     fixed point reached.
//
// Rewards are continuous uniform draws, so distinct policies are separated
// by gaps many orders of magnitude above double rounding — exact ties that
// would make bit-exact maxima flaky are measure-zero by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "runtime/mdp.hpp"

namespace clr::rt {
namespace {

/// A random dense-as-sparse MDP: every (s, a) gets its own stochastic row
/// over all states (some instances share rows across states to exercise the
/// row_of indirection), rewards uniform in [-1, 1], and roughly a third of
/// the instances carry a non-trivial action mask.
Mdp fuzz_mdp(util::Rng& rng, std::size_t num_states, std::size_t num_actions) {
  Mdp mdp;
  mdp.num_states = num_states;
  mdp.num_actions = num_actions;
  const bool share_rows = rng.chance(0.33);
  // Shared mode mirrors the production binding: the row depends only on the
  // action, so all states point at the same num_actions rows.
  const std::size_t distinct = share_rows ? num_actions : num_states * num_actions;
  for (std::size_t r = 0; r < distinct; ++r) {
    MdpRow row;
    double sum = 0.0;
    for (std::uint32_t next = 0; next < num_states; ++next) {
      const double w = rng.uniform(0.05, 1.0);
      row.emplace_back(next, w);
      sum += w;
    }
    for (auto& e : row) e.second /= sum;
    mdp.rows.push_back(std::move(row));
  }
  mdp.row_of.resize(num_states * num_actions);
  for (std::size_t s = 0; s < num_states; ++s) {
    for (std::size_t a = 0; a < num_actions; ++a) {
      mdp.row_of[s * num_actions + a] =
          static_cast<std::uint32_t>(share_rows ? a : s * num_actions + a);
    }
  }
  mdp.reward.resize(num_states * num_actions);
  for (double& r : mdp.reward) r = rng.uniform(-1.0, 1.0);
  if (rng.chance(0.33)) {
    mdp.allowed.assign(num_states * num_actions, 1);
    for (std::size_t s = 0; s < num_states; ++s) {
      // Forbid a random strict subset so every state keeps >= 1 action.
      const std::size_t keep = rng.index(num_actions);
      for (std::size_t a = 0; a < num_actions; ++a) {
        if (a != keep && rng.chance(0.3)) mdp.allowed[s * num_actions + a] = 0;
      }
    }
  }
  mdp.validate();
  return mdp;
}

/// Allowed actions per state, the enumeration alphabet.
std::vector<std::vector<std::uint32_t>> allowed_actions(const Mdp& mdp) {
  std::vector<std::vector<std::uint32_t>> per_state(mdp.num_states);
  for (std::size_t s = 0; s < mdp.num_states; ++s) {
    for (std::size_t a = 0; a < mdp.num_actions; ++a) {
      if (mdp.action_allowed(s, a)) per_state[s].push_back(static_cast<std::uint32_t>(a));
    }
  }
  return per_state;
}

/// Number of distinct stationary deterministic policies (product of the
/// per-state allowed counts).
std::uint64_t stationary_count(const std::vector<std::vector<std::uint32_t>>& per_state) {
  std::uint64_t n = 1;
  for (const auto& actions : per_state) n *= actions.size();
  return n;
}

/// The i-th stationary policy in mixed-radix order over the allowed sets.
std::vector<std::uint32_t> nth_stationary(
    const std::vector<std::vector<std::uint32_t>>& per_state, std::uint64_t i) {
  std::vector<std::uint32_t> policy(per_state.size());
  for (std::size_t s = 0; s < per_state.size(); ++s) {
    policy[s] = per_state[s][i % per_state[s].size()];
    i /= per_state[s].size();
  }
  return policy;
}

TEST(MdpOracle, ValueIterationAttainsTheExhaustiveStationaryOptimumExactly) {
  util::Rng rng(777);
  const double gamma = 0.9;
  for (int instance = 0; instance < 56; ++instance) {
    const std::size_t S = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t A = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const Mdp mdp = fuzz_mdp(rng, S, A);
    const auto per_state = allowed_actions(mdp);
    const std::uint64_t count = stationary_count(per_state);
    ASSERT_LE(count, 4096u);

    // Per-state maximum over every stationary deterministic policy. The
    // optimal policy attains it in every state simultaneously.
    std::vector<double> best(S, -std::numeric_limits<double>::infinity());
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto policy = nth_stationary(per_state, i);
      const auto value = evaluate_stationary_policy(mdp, policy, gamma);
      for (std::size_t s = 0; s < S; ++s) best[s] = std::max(best[s], value[s]);
    }

    ValueIterationOptions opts;
    opts.gamma = gamma;
    const MdpSolution vi = solve_value_iteration(mdp, opts);
    ASSERT_TRUE(vi.converged);
    const auto vi_value = evaluate_stationary_policy(mdp, vi.policy, gamma);
    for (std::size_t s = 0; s < S; ++s) {
      // Bit-exact: the VI policy is one of the enumerated candidates, both
      // sides went through evaluate_stationary_policy, and exact ties are
      // measure-zero.
      EXPECT_EQ(vi_value[s], best[s]) << "instance " << instance << " state " << s;
    }

    const MdpSolution pi = solve_policy_iteration(mdp, gamma);
    ASSERT_TRUE(pi.converged);
    const auto pi_value = evaluate_stationary_policy(mdp, pi.policy, gamma);
    for (std::size_t s = 0; s < S; ++s) {
      EXPECT_EQ(pi_value[s], best[s]) << "instance " << instance << " state " << s;
    }
  }
}

TEST(MdpOracle, ConvergedBellmanResidualIsBelowToleranceWhenRecomputedIndependently) {
  util::Rng rng(4242);
  for (int instance = 0; instance < 25; ++instance) {
    const std::size_t S = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t A = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const Mdp mdp = fuzz_mdp(rng, S, A);
    ValueIterationOptions opts;
    opts.gamma = 0.92;
    opts.tolerance = 1e-10;
    const MdpSolution sol = solve_value_iteration(mdp, opts);
    ASSERT_TRUE(sol.converged);

    // Recompute max_s |V(s) - (TV)(s)| from scratch.
    double residual = 0.0;
    for (std::size_t s = 0; s < S; ++s) {
      double bellman = -std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a < A; ++a) {
        if (!mdp.action_allowed(s, a)) continue;
        double q = mdp.reward[s * A + a];
        for (const auto& [next, prob] : mdp.row(s, a)) {
          q += opts.gamma * prob * sol.value[next];
        }
        bellman = std::max(bellman, q);
      }
      residual = std::max(residual, std::abs(sol.value[s] - bellman));
    }
    // The in-place sweep's self-reported residual and this Jacobi recompute
    // agree up to the contraction factor; both must sit under tolerance with
    // the usual gamma/(1-gamma) slack of a Gauss-Seidel stop rule.
    EXPECT_LE(residual, opts.tolerance * (1.0 + opts.gamma / (1.0 - opts.gamma)))
        << "instance " << instance;
  }
}

TEST(MdpOracle, SweepOrderDoesNotChangeTheFixedPointReached) {
  util::Rng rng(99);
  for (int instance = 0; instance < 25; ++instance) {
    const std::size_t S = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t A = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const Mdp mdp = fuzz_mdp(rng, S, A);
    ValueIterationOptions forward;
    forward.gamma = 0.9;
    ValueIterationOptions reverse = forward;
    reverse.order = SweepOrder::Reverse;
    const MdpSolution f = solve_value_iteration(mdp, forward);
    const MdpSolution r = solve_value_iteration(mdp, reverse);
    ASSERT_TRUE(f.converged);
    ASSERT_TRUE(r.converged);
    // The greedy policies must coincide (continuous rewards keep the argmax
    // gaps far above the solve tolerance), making their exact evaluations
    // bit-identical too.
    EXPECT_EQ(f.policy, r.policy) << "instance " << instance;
    const auto vf = evaluate_stationary_policy(mdp, f.policy, forward.gamma);
    const auto vr = evaluate_stationary_policy(mdp, r.policy, forward.gamma);
    for (std::size_t s = 0; s < S; ++s) EXPECT_EQ(vf[s], vr[s]);
  }
}

TEST(MdpOracle, ValidateRejectsStructurallyBrokenInstances) {
  util::Rng rng(5);
  Mdp good = fuzz_mdp(rng, 3, 2);

  Mdp non_stochastic = good;
  non_stochastic.rows[0][0].second += 0.5;
  EXPECT_THROW(non_stochastic.validate(), std::invalid_argument);

  Mdp bad_row_id = good;
  bad_row_id.row_of[0] = static_cast<std::uint32_t>(bad_row_id.rows.size());
  EXPECT_THROW(bad_row_id.validate(), std::invalid_argument);

  Mdp bad_next = good;
  bad_next.rows[0][0].first = static_cast<std::uint32_t>(bad_next.num_states);
  EXPECT_THROW(bad_next.validate(), std::invalid_argument);

  Mdp no_action = good;
  no_action.allowed.assign(no_action.num_states * no_action.num_actions, 1);
  for (std::size_t a = 0; a < no_action.num_actions; ++a) {
    no_action.allowed[1 * no_action.num_actions + a] = 0;
  }
  EXPECT_THROW(no_action.validate(), std::invalid_argument);

  Mdp wrong_sizes = good;
  wrong_sizes.reward.pop_back();
  EXPECT_THROW(wrong_sizes.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace clr::rt
