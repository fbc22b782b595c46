#include "runtime/policy.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/stats.hpp"
#include "faults/fault_model.hpp"
#include "moea/hypervolume.hpp"

namespace clr::rt {

const std::vector<bool>* AdaptationPolicy::alive_mask() const {
  return health_ != nullptr ? &health_->point_mask() : nullptr;
}

BaselinePolicy::BaselinePolicy(const dse::DesignDb& db, const DrcMatrix& drc)
    : db_(&db), drc_(&drc), feas_(db.size()) {
  if (db.empty()) throw std::invalid_argument("BaselinePolicy: empty database");
  if (drc.size() != db.size()) {
    throw std::invalid_argument("BaselinePolicy: drc size must match db size");
  }
  // Best signed hypervolume w.r.t. the QoS corner in (S, -F, J) space —
  // scale by the database ranges so units are comparable.
  const auto r = db.ranges();
  ref_ = {0.0, 0.0, r.energy_max * 1.05 + 1e-9};
  scale_ = {1.0 / std::max(r.makespan_max - r.makespan_min, 1e-9),
            1.0 / std::max(r.func_rel_max - r.func_rel_min, 1e-9),
            1.0 / std::max(r.energy_max - r.energy_min, 1e-9)};
  objectives_.assign(3, 0.0);
}

Decision BaselinePolicy::select(std::size_t current, const dse::QosSpec& spec) {
  Decision d;
  const auto* mask = alive_mask();
  const std::size_t m = db_->feasible_into(spec, feas_, mask);
  if (m == 0) {
    d.feasible_set_empty = true;
    d.point = db_->least_violating(spec, mask);
  } else {
    ref_[0] = spec.max_makespan;
    ref_[1] = -spec.min_func_rel;
    const double* makespan = db_->makespans().data();
    const double* func_rel = db_->func_rels().data();
    const double* energy = db_->energies().data();
    double best_hv = -std::numeric_limits<double>::infinity();
    std::size_t best = feas_[0];
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = feas_[k];
      objectives_[0] = makespan[i];
      objectives_[1] = -func_rel[i];
      objectives_[2] = energy[i];
      const double hv = moea::signed_point_hypervolume(objectives_, ref_, scale_);
      if (hv > best_hv) {
        best_hv = hv;
        best = i;
      }
    }
    d.point = best;
  }
  d.drc = drc_->drc(current, d.point);
  return d;
}

UraPolicy::UraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc)
    : db_(&db),
      drc_(&drc),
      p_rc_(p_rc),
      feas_(db.size()),
      feas_drc_(db.size()),
      feas_perf_(db.size()),
      feas_ret_(db.size()) {
  if (db.empty()) throw std::invalid_argument("UraPolicy: empty database");
  if (drc.size() != db.size()) {
    throw std::invalid_argument("UraPolicy: drc size must match db size");
  }
  if (p_rc < 0.0 || p_rc > 1.0) throw std::invalid_argument("UraPolicy: pRC must be in [0,1]");
  // Database-global scales for the *learning* reward: unlike the per-event
  // FEAS normalization of Algorithm 1 (which ranks candidates), the reward
  // fed to AuRA's value updates must be stationary across events, or the
  // learned values average incomparable quantities.
  const auto r = db.ranges();
  global_energy_lo_ = r.energy_min;
  global_energy_hi_ = r.energy_max;
  global_drc_hi_ = drc.max_drc();
}

Decision UraPolicy::evaluate_and_pick(std::size_t current, const dse::QosSpec& spec,
                                      const std::vector<double>* state_values, double gamma,
                                      double guard) {
  Decision d;
  const auto* mask = alive_mask();
  const std::size_t m = db_->feasible_into(spec, feas_, mask);
  if (m == 0) {
    d.feasible_set_empty = true;
    d.point = db_->least_violating(spec, mask);
    d.drc = drc_->drc(current, d.point);
    d.reward = 0.0;  // violating spec is the worst outcome in the [0,1] scale
    return d;
  }

  // Algorithm 1 lines 5-9: estimate dRC and R per feasible point, normalize
  // within FEAS, combine by pRC. dRC normalizes against a zero floor (not
  // the FEAS minimum): staying put costs nothing and must rank strictly
  // better than the cheapest actual move, otherwise a value lookahead breaks
  // the artificial tie with paid reconfigurations.
  const std::size_t* feas = feas_.data();
  const double* from = drc_->row(current);
  const double* energy = db_->energies().data();
  double* drc = feas_drc_.data();
  double* perf = feas_perf_.data();  // R(p) = -Japp(p)
  double drc_hi = 0.0;
  double r_lo = std::numeric_limits<double>::infinity(), r_hi = -r_lo;
  for (std::size_t k = 0; k < m; ++k) {
    drc[k] = from[feas[k]];
    perf[k] = -energy[feas[k]];
    drc_hi = std::max(drc_hi, drc[k]);
    r_lo = std::min(r_lo, perf[k]);
    r_hi = std::max(r_hi, perf[k]);
  }

  double* immediate = feas_ret_.data();
  double best_imm = -std::numeric_limits<double>::infinity();
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < m; ++k) {
    immediate[k] = p_rc_ * util::min_max_norm(perf[k], r_lo, r_hi) -
                   (1.0 - p_rc_) * util::min_max_norm(drc[k], 0.0, drc_hi);
    if (immediate[k] > best_imm || (immediate[k] == best_imm && feas[k] == current)) {
      best_imm = immediate[k];
      best_k = k;
    }
  }

  // Guarded value lookahead (AuRA): among candidates whose immediate RET is
  // within the guard band of the best, prefer the one with the best
  // RET + gamma * V — the learned values arbitrate otherwise-close choices
  // toward states with better long-run returns.
  if (state_values != nullptr && gamma > 0.0) {
    // guard = 0 means the lookahead arbitrates *exact* ties only — any
    // positive band, however small, would admit candidates strictly worse on
    // the immediate objective and break the γ=0/guard=0 uRA subsumption.
    const double band = std::max(guard, 0.0);
    const double* values = state_values->data();
    double best_ret = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < m; ++k) {
      if (immediate[k] + band < best_imm) continue;
      const double ret = immediate[k] + gamma * values[feas[k]];
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

double UraPolicy::global_reward(std::size_t point, double paid_drc) const {
  // Rewards live in [0, 1] (an affine shift of Algorithm 1's weighted sum):
  // a zero-initialized value function is then *pessimistic* about unvisited
  // states, so the agent does not pay reconfigurations just to explore them.
  const double norm_r =
      1.0 - util::min_max_norm(db_->energies()[point], global_energy_lo_, global_energy_hi_);
  const double norm_drc = util::min_max_norm(paid_drc, 0.0, global_drc_hi_);
  return p_rc_ * norm_r + (1.0 - p_rc_) * (1.0 - norm_drc);
}

Decision UraPolicy::select(std::size_t current, const dse::QosSpec& spec) {
  return evaluate_and_pick(current, spec, nullptr, 0.0, 0.0);
}

AuraPolicy::AuraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc,
                       Params params)
    : UraPolicy(db, drc, p_rc), params_(params) {
  if (params.gamma < 0.0 || params.gamma >= 1.0) {
    throw std::invalid_argument("AuraPolicy: gamma must be in [0,1)");
  }
  if (params.alpha <= 0.0 || params.alpha > 1.0) {
    throw std::invalid_argument("AuraPolicy: alpha must be in (0,1]");
  }
  values_.assign(db.size(), params.initial_value);
  visits_.assign(db.size(), 0);
}

AuraPolicy::AuraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc)
    : AuraPolicy(db, drc, p_rc, Params{}) {}

Decision AuraPolicy::select(std::size_t current, const dse::QosSpec& spec) {
  Decision d = evaluate_and_pick(current, spec, &values_, params_.gamma, params_.guard);
  if (learning_) episode_.emplace_back(d.point, d.reward);
  return d;
}

Decision AuraPolicy::select_initial(std::size_t hint, const dse::QosSpec& spec) {
  // The t=0 placement is free: the "current" hint was never occupied, so the
  // dRC its reward would charge was never paid. Keep it out of the episode.
  return evaluate_and_pick(hint, spec, &values_, params_.gamma, params_.guard);
}

Decision AuraPolicy::peek(std::size_t current, const dse::QosSpec& spec) {
  // Speculative preview (prefetch staging): same evaluation as select(), but
  // never recorded — a mispredicted stage must not bias the value updates.
  return evaluate_and_pick(current, spec, &values_, params_.gamma, params_.guard);
}

void AuraPolicy::end_episode() {
  if (!learning_ || episode_.empty()) return;
  // Every-visit Monte-Carlo: discounted return from each step to episode end.
  double g = 0.0;
  for (auto it = episode_.rbegin(); it != episode_.rend(); ++it) {
    g = it->second + params_.gamma * g;
    double& v = values_[it->first];
    v += params_.alpha * (g - v);
    ++visits_[it->first];
  }
  episode_.clear();
}

void AuraPolicy::neutralize_unvisited() {
  double sum = 0.0;
  std::size_t visited = 0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (visits_[i] > 0) {
      sum += values_[i];
      ++visited;
    }
  }
  if (visited == 0) return;
  const double mean = sum / static_cast<double>(visited);
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (visits_[i] == 0) values_[i] = mean;
  }
}

void AuraPolicy::reset() { episode_.clear(); }

void AuraPolicy::set_values(std::vector<double> values) {
  if (values.size() != values_.size()) {
    throw std::invalid_argument("AuraPolicy::set_values: size mismatch");
  }
  values_ = std::move(values);
}

}  // namespace clr::rt
