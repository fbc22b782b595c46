#include "runtime/mdp_policy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/stats.hpp"
#include "trace/trace.hpp"

namespace clr::rt {

namespace {

/// Standard normal CDF.
double norm_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Per-dimension AR(1) bin-transition matrix (n × n, row-major): from the
/// center of bin i, next = mean + phi * (center - mean) + N(0, (1-phi²)·sd²),
/// integrated over the bin edges. The first/last bins absorb the tails —
/// exactly where QosProcess's clamping parks out-of-box draws.
std::vector<double> bin_kernel(std::size_t n, double lo, double hi, double mean, double sd,
                               double phi) {
  std::vector<double> t(n * n, 0.0);
  const double width = (hi - lo) / static_cast<double>(n);
  const double step_sd = std::max(sd * std::sqrt(std::max(0.0, 1.0 - phi * phi)), 1e-12);
  for (std::size_t i = 0; i < n; ++i) {
    const double center = lo + (static_cast<double>(i) + 0.5) * width;
    const double mu = mean + phi * (center - mean);
    double prev_cdf = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double edge_hi = lo + static_cast<double>(j + 1) * width;
      const double cdf = j + 1 == n ? 1.0 : norm_cdf((edge_hi - mu) / step_sd);
      t[i * n + j] = cdf - prev_cdf;
      prev_cdf = cdf;
    }
  }
  return t;
}

std::size_t pes_used(const dse::DesignPoint& p) {
  std::vector<plat::PeId> pes;
  for (const auto& a : p.config.tasks) pes.push_back(a.pe);
  std::sort(pes.begin(), pes.end());
  pes.erase(std::unique(pes.begin(), pes.end()), pes.end());
  return pes.size();
}

}  // namespace

std::size_t MdpTable::bin_of(const dse::QosSpec& spec) const {
  auto bucket = [](double x, double lo, double hi, std::uint32_t n) {
    const double t = util::min_max_norm(x, lo, hi);
    return std::min(static_cast<std::size_t>(t * static_cast<double>(n)),
                    static_cast<std::size_t>(n) - 1);
  };
  const std::size_t s = bucket(spec.max_makespan, ranges.makespan_min, ranges.makespan_max,
                               makespan_bins);
  const std::size_t f = bucket(spec.min_func_rel, ranges.func_rel_min, ranges.func_rel_max,
                               func_rel_bins);
  return s * func_rel_bins + f;
}

void order_mdp_table(MdpTable& table) {
  const std::size_t points = static_cast<std::size_t>(table.num_points);
  const std::size_t states = table.num_states();
  if (table.policy.size() != states || table.values.size() != states) {
    throw std::invalid_argument("order_mdp_table: malformed table");
  }
  for (std::size_t s = 0; s < states; ++s) {
    if (table.policy[s] >= points) {
      throw std::invalid_argument("order_mdp_table: state " + std::to_string(s) + ": action " +
                                  std::to_string(table.policy[s]) + " out of range");
    }
    if (!std::isfinite(table.values[s])) {
      throw std::invalid_argument("order_mdp_table: state " + std::to_string(s) +
                                  ": non-finite value");
    }
  }
  // Every value is finite, so (value descending, index ascending) is a strict
  // total order and std::sort's result does not depend on its tie handling.
  table.value_order.resize(states);
  for (std::size_t base = 0; base < states; base += points) {
    const auto first = table.value_order.begin() + static_cast<std::ptrdiff_t>(base);
    const auto last = first + static_cast<std::ptrdiff_t>(points);
    std::iota(first, last, std::uint32_t{0});
    const double* values = table.values.data() + base;
    std::sort(first, last, [values](std::uint32_t a, std::uint32_t b) {
      return values[a] > values[b] || (values[a] == values[b] && a < b);
    });
  }
}

Mdp build_selection_mdp(const dse::DesignDb& db, const DrcMatrix& drc,
                        const dse::MetricRanges& ranges, double p_rc,
                        const QosProcessParams& qos, const flt::FaultParams& faults,
                        const MdpPolicyParams& params) {
  if (db.empty()) throw std::invalid_argument("build_mdp_table: empty database");
  if (params.makespan_bins == 0 || params.func_rel_bins == 0) {
    throw std::invalid_argument("build_mdp_table: bin counts must be >= 1");
  }
  if (p_rc < 0.0 || p_rc > 1.0) {
    throw std::invalid_argument("build_mdp_table: pRC must be in [0,1]");
  }
  const std::size_t points = db.size();
  const std::size_t bins = params.makespan_bins * params.func_rel_bins;
  const std::size_t states = bins * points;
  if (states > (std::size_t{1} << 22)) {
    throw std::invalid_argument("build_mdp_table: state space exceeds the 2^22 cap");
  }

  // Per-dimension AR(1) bin kernels over the QoS box. The cross-dimension
  // correlation (rho) is dropped: the joint kernel is the product of the
  // marginals — a standard factored approximation that keeps the row count
  // at bins instead of bins² distinct covariance integrals.
  const double s_range = std::max(ranges.makespan_max - ranges.makespan_min, 1e-9);
  const double f_range = std::max(ranges.func_rel_max - ranges.func_rel_min, 1e-9);
  const std::vector<double> t_s =
      bin_kernel(params.makespan_bins, ranges.makespan_min, ranges.makespan_max,
                 ranges.makespan_min + qos.makespan_mean_frac * s_range,
                 std::max(qos.makespan_sd_frac * s_range, 1e-12), qos.ar1_phi);
  const std::vector<double> t_f =
      bin_kernel(params.func_rel_bins, ranges.func_rel_min, ranges.func_rel_max,
                 ranges.func_rel_min + qos.func_rel_mean_frac * f_range,
                 std::max(qos.func_rel_sd_frac * f_range, 1e-12), qos.ar1_phi);

  // Reward ingredients (all database-global, like UraPolicy::global_reward):
  // energy/dRC normalization plus the fault-regime hazard per action — the
  // probability a fault strikes the action's PEs within one mean event gap,
  // charged the action's expected evacuation cost.
  const auto r = db.ranges();
  const double drc_hi = std::max(drc.max_drc(), 1e-12);
  std::vector<double> energy_norm(points), hazard(points), evac_norm(points);
  const double per_pe_rate =
      faults.transient_rate + (faults.pe_mtbf > 0.0 ? 1.0 / faults.pe_mtbf : 0.0);
  for (std::size_t k = 0; k < points; ++k) {
    const auto& p = db.point(k);
    energy_norm[k] = util::min_max_norm(p.energy, r.energy_min, r.energy_max);
    const double rate = per_pe_rate * static_cast<double>(pes_used(p));
    hazard[k] = 1.0 - std::exp(-rate * qos.mean_event_gap);
    double evac = 0.0;
    for (std::size_t j = 0; j < points; ++j) evac += drc.drc(k, j);
    evac_norm[k] = (evac / static_cast<double>(points)) / drc_hi;
  }

  // Assemble the factored MDP: state = bin * points + current, action = next
  // point. The next state is (next bin, action), so the transition row
  // depends only on (bin, action) — bins × points shared rows.
  Mdp mdp;
  mdp.num_states = states;
  mdp.num_actions = points;
  mdp.row_of.resize(states * points);
  mdp.rows.resize(bins * points);
  mdp.reward.resize(states * points);
  for (std::size_t bs = 0; bs < params.makespan_bins; ++bs) {
    for (std::size_t bf = 0; bf < params.func_rel_bins; ++bf) {
      const std::size_t bin = bs * params.func_rel_bins + bf;
      // Bin-center requirement for the feasibility shaping term.
      const double s_width = s_range / static_cast<double>(params.makespan_bins);
      const double f_width = f_range / static_cast<double>(params.func_rel_bins);
      dse::QosSpec center;
      center.max_makespan = ranges.makespan_min + (static_cast<double>(bs) + 0.5) * s_width;
      center.min_func_rel = ranges.func_rel_min + (static_cast<double>(bf) + 0.5) * f_width;
      for (std::size_t a = 0; a < points; ++a) {
        MdpRow& row = mdp.rows[bin * points + a];
        row.reserve(bins);
        for (std::size_t ns = 0; ns < params.makespan_bins; ++ns) {
          for (std::size_t nf = 0; nf < params.func_rel_bins; ++nf) {
            const double prob =
                t_s[bs * params.makespan_bins + ns] * t_f[bf * params.func_rel_bins + nf];
            if (prob <= 0.0) continue;
            const std::size_t nbin = ns * params.func_rel_bins + nf;
            row.emplace_back(static_cast<std::uint32_t>(nbin * points + a), prob);
          }
        }
        // Numerical drift of the CDF products: renormalize so validate()'s
        // stochasticity contract holds exactly within tolerance.
        double sum = 0.0;
        for (const auto& e : row) sum += e.second;
        if (sum > 0.0) {
          for (auto& e : row) e.second /= sum;
        }
      }
      for (std::size_t cur = 0; cur < points; ++cur) {
        const std::size_t s = bin * points + cur;
        for (std::size_t a = 0; a < points; ++a) {
          const double cost = util::min_max_norm(drc.drc(cur, a), 0.0, drc_hi);
          double reward = p_rc * (1.0 - energy_norm[a]) + (1.0 - p_rc) * (1.0 - cost);
          // Feasibility shaping: an action that misses the bin-center
          // requirement forfeits the whole [0,1] reward band — the dominant
          // term, mirroring evaluate_and_pick's feasible-set restriction.
          if (!db.point(a).feasible_for(center)) reward -= 1.0;
          // Fault hazard: expected evacuation cost before the next decision.
          reward -= hazard[a] * evac_norm[a];
          mdp.reward[s * points + a] = reward;
          mdp.row_of[s * points + a] = static_cast<std::uint32_t>(bin * points + a);
        }
      }
    }
  }
  mdp.validate();
  return mdp;
}

MdpTable build_mdp_table(const dse::DesignDb& db, const DrcMatrix& drc,
                         const dse::MetricRanges& ranges, double p_rc,
                         const QosProcessParams& qos, const flt::FaultParams& faults,
                         const MdpPolicyParams& params) {
  CLR_TRACE_SPAN(solve_span, trace::Category::Runtime, "rt.mdp_solve");
  const Mdp mdp = build_selection_mdp(db, drc, ranges, p_rc, qos, faults, params);
  ValueIterationOptions opts;
  opts.gamma = params.gamma;
  opts.tolerance = params.tolerance;
  opts.max_sweeps = params.max_sweeps;
  MdpSolution sol = solve_value_iteration(mdp, opts);
  const std::size_t sweeps = sol.iterations;
  std::uint64_t rows_summed = sol.rows_summed;
  const bool fallback = !sol.converged;
  if (fallback) {
    // Slow contraction (gamma near 1): Howard policy iteration terminates in
    // finitely many exact evaluation/improvement rounds instead.
    sol = solve_policy_iteration(mdp, params.gamma);
    rows_summed += sol.rows_summed;
  }
  if (solve_span.active()) {
    solve_span.arg({"states", mdp.num_states});
    solve_span.arg({"actions", mdp.num_actions});
    solve_span.arg({"rows", mdp.rows.size()});
    solve_span.arg({"sweeps", sweeps});
    solve_span.arg({"residual", sol.residual});
    solve_span.arg({"converged", sol.converged});
    solve_span.arg({"pi_fallback", fallback});
    solve_span.arg({"rows_summed", rows_summed});
  }

  MdpTable table;
  table.makespan_bins = static_cast<std::uint32_t>(params.makespan_bins);
  table.func_rel_bins = static_cast<std::uint32_t>(params.func_rel_bins);
  table.num_points = db.size();
  table.gamma = params.gamma;
  table.p_rc = p_rc;
  table.ranges = ranges;
  table.policy = std::move(sol.policy);
  table.values = std::move(sol.value);
  order_mdp_table(table);
  return table;
}

MdpPolicy::MdpPolicy(const dse::DesignDb& db, const DrcMatrix& drc, const MdpTable& table)
    : db_(&db), drc_(&drc), table_(&table) {
  if (db.empty()) throw std::invalid_argument("MdpPolicy: empty database");
  if (drc.size() != db.size()) {
    throw std::invalid_argument("MdpPolicy: drc size must match db size");
  }
  if (table.num_points != db.size()) {
    throw std::invalid_argument("MdpPolicy: table was solved for a different database size");
  }
  if (table.policy.size() != table.num_states() || table.values.size() != table.num_states()) {
    throw std::invalid_argument("MdpPolicy: malformed table");
  }
  if (table.value_order.size() != table.num_states()) {
    throw std::invalid_argument("MdpPolicy: table has no value order (see order_mdp_table)");
  }
}

Decision MdpPolicy::decide(std::size_t current, const dse::QosSpec& spec) {
  Decision d;
  const auto* mask = alive_mask();
  const double* makespans = db_->makespans().data();
  const double* func_rels = db_->func_rels().data();
  const auto usable = [&](std::size_t k) {
    return (mask == nullptr || (*mask)[k]) && spec.satisfied_by(makespans[k], func_rels[k]);
  };
  const std::size_t base = table_->bin_of(spec) * db_->size();
  std::size_t pick = table_->policy[base + current];
  if (!usable(pick)) {
    // The tabular action was optimal for the bin center, not this concrete
    // requirement (or its PEs died). Take the usable point the bin's values
    // rank highest: the first one in value order is the lowest index of the
    // best value, and `current` wins a tie with it.
    const std::uint32_t* order = table_->value_order.data() + base;
    const std::uint32_t* const end = order + db_->size();
    while (order != end && !usable(*order)) ++order;
    if (order == end) {
      d.feasible_set_empty = true;
      pick = db_->least_violating(spec, mask);
    } else {
      pick = *order;
      const double* values = table_->values.data() + base;
      if (values[current] == values[pick] && usable(current)) pick = current;
    }
  }
  d.point = pick;
  d.drc = drc_->drc(current, pick);
  return d;
}

Decision MdpPolicy::select(std::size_t current, const dse::QosSpec& spec) {
  return decide(current, spec);
}

Decision MdpPolicy::peek(std::size_t current, const dse::QosSpec& spec) {
  return decide(current, spec);
}

}  // namespace clr::rt
