#include "runtime/mdp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace clr::rt {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// The row-expectation cache (DESIGN.md §5.14). For every distinct row r it
/// keeps E[r] = sum of p * V(next) over r's entries in stored order, and
/// re-sums r only when r is read after a write to a state it lists (a CSR
/// reverse index maps each state to those rows). An expectation is therefore
/// always the double a fresh sum over the current values would give, and so
/// is every Q value built from it.
class RowExpectations {
 public:
  explicit RowExpectations(const Mdp& mdp)
      : mdp_(mdp), sum_(mdp.rows.size(), 0.0), stale_(mdp.rows.size(), 1),
        first_reader_(mdp.num_states + 1, 0) {
    for (const MdpRow& row : mdp.rows) {
      for (const auto& entry : row) ++first_reader_[entry.first + 1];
    }
    for (std::size_t s = 0; s < mdp.num_states; ++s) first_reader_[s + 1] += first_reader_[s];
    readers_.resize(first_reader_.back());
    std::vector<std::size_t> next_slot(first_reader_.begin(), first_reader_.end() - 1);
    for (std::size_t r = 0; r < mdp.rows.size(); ++r) {
      for (const auto& entry : mdp.rows[r]) {
        readers_[next_slot[entry.first]++] = static_cast<std::uint32_t>(r);
      }
    }
  }

  /// Every state's value was rewritten.
  void invalidate_all() { std::fill(stale_.begin(), stale_.end(), 1); }

  /// V(s) was written: the rows listing s are re-summed at their next read.
  void wrote(std::size_t s) {
    for (std::size_t i = first_reader_[s]; i < first_reader_[s + 1]; ++i) stale_[readers_[i]] = 1;
  }

  double expected(std::uint32_t r, const std::vector<double>& value) {
    if (stale_[r] != 0) {
      double sum = 0.0;
      for (const auto& [next, prob] : mdp_.rows[r]) sum += prob * value[next];
      sum_[r] = sum;
      stale_[r] = 0;
      ++rows_summed_;
    }
    return sum_[r];
  }

  /// Bellman backup of one state: max over allowed actions of
  /// R(s,a) + gamma * E[V(s')]. Returns the best action through
  /// `best_action`.
  double backup(const std::vector<double>& value, double gamma, std::size_t s,
                std::uint32_t& best_action) {
    double best = kNegInf;
    std::uint32_t arg = 0;
    const std::size_t base = s * mdp_.num_actions;
    for (std::size_t a = 0; a < mdp_.num_actions; ++a) {
      if (!mdp_.action_allowed(s, a)) continue;
      const double q = mdp_.reward[base + a] + gamma * expected(mdp_.row_of[base + a], value);
      if (q > best) {
        best = q;
        arg = static_cast<std::uint32_t>(a);
      }
    }
    best_action = arg;
    return best;
  }

  std::uint64_t rows_summed() const { return rows_summed_; }

 private:
  const Mdp& mdp_;
  std::vector<double> sum_;
  std::vector<std::uint8_t> stale_;
  /// readers_[first_reader_[s] .. first_reader_[s + 1]) are the rows listing
  /// state s, once per listing.
  std::vector<std::size_t> first_reader_;
  std::vector<std::uint32_t> readers_;
  std::uint64_t rows_summed_ = 0;
};

}  // namespace

void Mdp::validate() const {
  if (num_states == 0 || num_actions == 0) {
    throw std::invalid_argument("Mdp: num_states and num_actions must be > 0");
  }
  const std::size_t sa = num_states * num_actions;
  if (row_of.size() != sa) throw std::invalid_argument("Mdp: row_of size mismatch");
  if (reward.size() != sa) throw std::invalid_argument("Mdp: reward size mismatch");
  if (!allowed.empty() && allowed.size() != sa) {
    throw std::invalid_argument("Mdp: allowed size mismatch");
  }
  for (std::uint32_t r : row_of) {
    if (r >= rows.size()) throw std::invalid_argument("Mdp: row id out of range");
  }
  for (const MdpRow& row : rows) {
    double sum = 0.0;
    for (const auto& [next, prob] : row) {
      if (next >= num_states) throw std::invalid_argument("Mdp: next state out of range");
      if (prob < 0.0) throw std::invalid_argument("Mdp: negative transition probability");
      sum += prob;
    }
    if (std::abs(sum - 1.0) > 1e-9) {
      throw std::invalid_argument("Mdp: transition row sums to " + std::to_string(sum) +
                                  ", expected 1");
    }
  }
  if (!allowed.empty()) {
    for (std::size_t s = 0; s < num_states; ++s) {
      bool any = false;
      for (std::size_t a = 0; a < num_actions && !any; ++a) any = action_allowed(s, a);
      if (!any) {
        throw std::invalid_argument("Mdp: state " + std::to_string(s) +
                                    " has no allowed action");
      }
    }
  }
}

MdpSolution solve_value_iteration(const Mdp& mdp, const ValueIterationOptions& opts) {
  if (opts.gamma < 0.0 || opts.gamma >= 1.0) {
    throw std::invalid_argument("solve_value_iteration: gamma must be in [0,1)");
  }
  MdpSolution sol;
  sol.value.assign(mdp.num_states, 0.0);
  sol.policy.assign(mdp.num_states, 0);
  RowExpectations rows(mdp);

  // Gauss-Seidel: V(s) updated in place; later states of the same sweep read
  // the fresh values, which only accelerates the contraction (the fixed point
  // is the same — proven sweep-order-independent by the oracle suite).
  const auto update = [&](std::size_t s, double& residual) {
    std::uint32_t a = 0;
    const double v = rows.backup(sol.value, opts.gamma, s, a);
    residual = std::max(residual, std::abs(v - sol.value[s]));
    sol.value[s] = v;
    rows.wrote(s);
  };
  for (std::size_t sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    double residual = 0.0;
    if (opts.order == SweepOrder::Forward) {
      for (std::size_t s = 0; s < mdp.num_states; ++s) update(s, residual);
    } else {
      for (std::size_t s = mdp.num_states; s-- > 0;) update(s, residual);
    }
    sol.iterations = sweep + 1;
    sol.residual = residual;
    if (residual <= opts.tolerance) {
      sol.converged = true;
      break;
    }
  }

  // Greedy policy of the final value function (one more consistent pass so
  // the reported policy matches `value` regardless of sweep order).
  for (std::size_t s = 0; s < mdp.num_states; ++s) {
    rows.backup(sol.value, opts.gamma, s, sol.policy[s]);
  }
  sol.rows_summed = rows.rows_summed();
  return sol;
}

std::vector<double> evaluate_stationary_policy(const Mdp& mdp,
                                               std::span<const std::uint32_t> policy,
                                               double gamma) {
  const std::size_t n = mdp.num_states;
  if (policy.size() != n) {
    throw std::invalid_argument("evaluate_stationary_policy: policy size mismatch");
  }
  // Dense system A V = b with A = I - gamma * P_pi, b = R_pi.
  std::vector<double> a(n * n, 0.0);
  std::vector<double> b(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    a[s * n + s] = 1.0;
    const std::size_t act = policy[s];
    if (act >= mdp.num_actions || !mdp.action_allowed(s, act)) {
      throw std::invalid_argument("evaluate_stationary_policy: disallowed action");
    }
    for (const auto& [next, prob] : mdp.row(s, act)) a[s * n + next] -= gamma * prob;
    b[s] = mdp.reward[s * mdp.num_actions + act];
  }
  // Partial-pivot Gaussian elimination. A is strictly diagonally dominant for
  // gamma < 1, so the system is always solvable; pivoting keeps it stable.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double diag = a[col * n + col];
    if (diag == 0.0) {
      throw std::runtime_error("evaluate_stationary_policy: singular system");
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> v(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double sum = b[row];
    for (std::size_t c = row + 1; c < n; ++c) sum -= a[row * n + c] * v[c];
    v[row] = sum / a[row * n + row];
  }
  return v;
}

MdpSolution solve_policy_iteration(const Mdp& mdp, double gamma, std::size_t max_rounds) {
  if (gamma < 0.0 || gamma >= 1.0) {
    throw std::invalid_argument("solve_policy_iteration: gamma must be in [0,1)");
  }
  MdpSolution sol;
  sol.policy.assign(mdp.num_states, 0);
  // Start from the first allowed action of every state.
  for (std::size_t s = 0; s < mdp.num_states; ++s) {
    for (std::size_t a = 0; a < mdp.num_actions; ++a) {
      if (mdp.action_allowed(s, a)) {
        sol.policy[s] = static_cast<std::uint32_t>(a);
        break;
      }
    }
  }
  RowExpectations rows(mdp);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    sol.value = evaluate_stationary_policy(mdp, sol.policy, gamma);
    rows.invalidate_all();
    sol.iterations = round + 1;
    bool stable = true;
    double residual = 0.0;
    for (std::size_t s = 0; s < mdp.num_states; ++s) {
      std::uint32_t best = 0;
      const double v = rows.backup(sol.value, gamma, s, best);
      residual = std::max(residual, std::abs(v - sol.value[s]));
      if (best != sol.policy[s]) {
        // Accept strictly-improving switches only: ties keep the incumbent,
        // or PI can cycle between equal-value policies forever.
        const std::size_t sa = s * mdp.num_actions + sol.policy[s];
        const double incumbent = mdp.reward[sa] + gamma * rows.expected(mdp.row_of[sa], sol.value);
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
  sol.rows_summed = rows.rows_summed();
  return sol;
}

}  // namespace clr::rt
