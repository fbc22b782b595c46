#include "reference_policy.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "moea/hypervolume.hpp"

namespace clr::rt::reference {

namespace {

/// util::min_max_norm as it was defined out of line.
double min_max_norm(double x, double lo, double hi) {
  const double range = hi - lo;
  if (range <= 0.0) return 0.0;
  return std::clamp((x - lo) / range, 0.0, 1.0);
}

/// DrcMatrix::max_drc as a full scan of the table.
double max_drc(const DrcMatrix& drc) {
  double best = 0.0;
  for (std::size_t i = 0; i < drc.size(); ++i) {
    for (std::size_t j = 0; j < drc.size(); ++j) best = std::max(best, drc.drc(i, j));
  }
  return best;
}

}  // namespace

double violation_of(const dse::DesignDb& db, std::size_t i, const dse::QosSpec& spec) {
  const auto& p = db.points().at(i);
  double v = 0.0;
  if (p.makespan > spec.max_makespan) {
    v += (p.makespan - spec.max_makespan) / spec.max_makespan;
  }
  if (p.func_rel < spec.min_func_rel) {
    v += (spec.min_func_rel - p.func_rel) / std::max(spec.min_func_rel, 1e-9);
  }
  return v;
}

std::size_t least_violating(const dse::DesignDb& db, const dse::QosSpec& spec,
                            const std::vector<bool>* point_alive) {
  if (db.empty()) throw std::logic_error("least_violating: empty database");
  std::size_t best = db.size();
  double best_violation = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (point_alive != nullptr && !(*point_alive)[i]) continue;
    const double v = violation_of(db, i, spec);
    if (v < best_violation) {
      best_violation = v;
      best = i;
    }
  }
  if (best == db.size()) {
    throw std::logic_error("least_violating: alive-mask excludes every stored point");
  }
  return best;
}

std::vector<std::size_t> feasible_indices(const dse::DesignDb& db, const dse::QosSpec& spec,
                                          const std::vector<bool>* point_alive) {
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (point_alive != nullptr && !(*point_alive)[i]) continue;
    if (db.points()[i].feasible_for(spec)) result.push_back(i);
  }
  return result;
}

Ura::Ura(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc)
    : db_(&db), drc_(&drc), p_rc_(p_rc) {
  const auto r = db.ranges();
  global_energy_lo_ = r.energy_min;
  global_energy_hi_ = r.energy_max;
  global_drc_hi_ = max_drc(drc);
}

Decision Ura::evaluate_and_pick(std::size_t current, const dse::QosSpec& spec,
                                const std::vector<bool>* mask,
                                const std::vector<double>* state_values, double gamma,
                                double guard) const {
  Decision d;
  auto feas = feasible_indices(*db_, spec, mask);
  if (feas.empty()) {
    d.feasible_set_empty = true;
    d.point = least_violating(*db_, spec, mask);
    d.drc = drc_->drc(current, d.point);
    d.reward = 0.0;
    return d;
  }

  std::vector<double> drc(feas.size());
  std::vector<double> perf(feas.size());
  double drc_hi = 0.0;
  double r_lo = std::numeric_limits<double>::infinity(), r_hi = -r_lo;
  for (std::size_t k = 0; k < feas.size(); ++k) {
    const auto& p = db_->point(feas[k]);
    drc[k] = drc_->drc(current, feas[k]);
    perf[k] = -p.energy;
    drc_hi = std::max(drc_hi, drc[k]);
    r_lo = std::min(r_lo, perf[k]);
    r_hi = std::max(r_hi, perf[k]);
  }

  std::vector<double> immediate(feas.size());
  double best_imm = -std::numeric_limits<double>::infinity();
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < feas.size(); ++k) {
    immediate[k] = p_rc_ * min_max_norm(perf[k], r_lo, r_hi) -
                   (1.0 - p_rc_) * min_max_norm(drc[k], 0.0, drc_hi);
    if (immediate[k] > best_imm || (immediate[k] == best_imm && feas[k] == current)) {
      best_imm = immediate[k];
      best_k = k;
    }
  }

  if (state_values != nullptr && gamma > 0.0) {
    const double band = std::max(guard, 0.0);
    double best_ret = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < feas.size(); ++k) {
      if (immediate[k] + band < best_imm) continue;
      const double ret = immediate[k] + gamma * (*state_values)[feas[k]];
      if (ret > best_ret || (ret == best_ret && feas[k] == current)) {
        best_ret = ret;
        best_k = k;
      }
    }
  }

  d.point = feas[best_k];
  d.drc = drc[best_k];
  d.reward = global_reward(d.point, d.drc);
  return d;
}

double Ura::global_reward(std::size_t point, double paid_drc) const {
  const double norm_r =
      1.0 - min_max_norm(db_->point(point).energy, global_energy_lo_, global_energy_hi_);
  const double norm_drc = min_max_norm(paid_drc, 0.0, global_drc_hi_);
  return p_rc_ * norm_r + (1.0 - p_rc_) * (1.0 - norm_drc);
}

Decision baseline_select(const dse::DesignDb& db, const DrcMatrix& drc, std::size_t current,
                         const dse::QosSpec& spec, const std::vector<bool>* mask) {
  Decision d;
  auto feas = feasible_indices(db, spec, mask);
  if (feas.empty()) {
    d.feasible_set_empty = true;
    d.point = least_violating(db, spec, mask);
  } else {
    const auto r = db.ranges();
    const std::vector<double> ref{spec.max_makespan, -spec.min_func_rel,
                                  r.energy_max * 1.05 + 1e-9};
    const std::vector<double> scale{
        1.0 / std::max(r.makespan_max - r.makespan_min, 1e-9),
        1.0 / std::max(r.func_rel_max - r.func_rel_min, 1e-9),
        1.0 / std::max(r.energy_max - r.energy_min, 1e-9)};
    double best_hv = -std::numeric_limits<double>::infinity();
    std::size_t best = feas.front();
    for (std::size_t i : feas) {
      const auto& p = db.point(i);
      const double hv =
          moea::signed_point_hypervolume({p.makespan, -p.func_rel, p.energy}, ref, scale);
      if (hv > best_hv) {
        best_hv = hv;
        best = i;
      }
    }
    d.point = best;
  }
  d.drc = drc.drc(current, d.point);
  return d;
}

Decision mdp_decide(const dse::DesignDb& db, const DrcMatrix& drc, const MdpTable& table,
                    std::size_t current, const dse::QosSpec& spec,
                    const std::vector<bool>* mask) {
  Decision d;
  const std::size_t points = db.size();
  const auto usable = [&](std::size_t k) {
    return (mask == nullptr || (*mask)[k]) && db.point(k).feasible_for(spec);
  };

  std::size_t pick = table.policy[table.state_of(spec, current)];
  if (!usable(pick)) {
    const std::size_t base = table.bin_of(spec) * points;
    bool found = false;
    double best_v = -std::numeric_limits<double>::infinity();
    std::size_t best_k = 0;
    for (std::size_t k = 0; k < points; ++k) {
      if (!usable(k)) continue;
      const double v = table.values[base + k];
      if (!found || v > best_v || (v == best_v && k == current)) {
        found = true;
        best_v = v;
        best_k = k;
      }
    }
    if (found) {
      pick = best_k;
    } else {
      d.feasible_set_empty = true;
      pick = least_violating(db, spec, mask);
    }
  }
  d.point = pick;
  d.drc = drc.drc(current, pick);
  return d;
}

}  // namespace clr::rt::reference
