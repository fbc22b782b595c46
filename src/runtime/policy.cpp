#include "runtime/policy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

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

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Indices of the non-NaN entries of `column`, sorted by `before`.
template <typename Before>
std::vector<std::uint32_t> sorted_order(const std::vector<double>& column, Before before) {
  std::vector<std::uint32_t> order;
  for (std::size_t i = 0; i < column.size(); ++i) {
    if (!std::isnan(column[i])) order.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t x, std::uint32_t y) { return before(column[x], column[y]); });
  return order;
}

/// rank[i]: the position in `order` where the run of values equal to point
/// i's ends, i.e. the size of the smallest threshold set holding point i (0
/// for a NaN point, which is in none).
std::vector<std::uint32_t> run_ends(const std::vector<double>& column,
                                    const std::vector<std::uint32_t>& order) {
  std::vector<std::uint32_t> rank(column.size(), 0);
  for (std::size_t lo = 0; lo < order.size();) {
    std::size_t hi = lo + 1;
    while (hi < order.size() && column[order[hi]] == column[order[lo]]) ++hi;
    for (std::size_t k = lo; k < hi; ++k) rank[order[k]] = static_cast<std::uint32_t>(hi);
    lo = hi;
  }
  return rank;
}

}  // namespace

void DecisionTable::Counters::merge(const Counters& other) {
  lookups += other.lookups;
  hits += other.hits;
  fills += other.fills;
  empty += other.empty;
  band_ties += other.band_ties;
}

DecisionTable::DecisionTable(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc,
                             double guard)
    : db_(&db), drc_(&drc), p_rc_(p_rc), guard_(guard) {
  const std::size_t n = db.size();
  if (n == 0) throw std::invalid_argument("DecisionTable: empty database");
  // Entries are 16-bit point indices next to two marks.
  if (n >= kBandTie) {
    throw std::invalid_argument("DecisionTable: at most 65534 stored points, got " +
                                std::to_string(n));
  }
  if (drc.size() != n) throw std::invalid_argument("DecisionTable: drc size must match db size");
  if (p_rc < 0.0 || p_rc > 1.0) throw std::invalid_argument("DecisionTable: pRC must be in [0,1]");

  const std::vector<double>& makespan = db.makespans();
  const std::vector<double>& func_rel = db.func_rels();
  const auto by_makespan = sorted_order(makespan, std::less<double>());
  const auto by_func_rel = sorted_order(func_rel, std::greater<double>());
  makespans_.reserve(by_makespan.size());
  func_rels_.reserve(by_func_rel.size());
  for (const std::uint32_t i : by_makespan) makespans_.push_back(makespan[i]);
  for (const std::uint32_t i : by_func_rel) func_rels_.push_back(func_rel[i]);
  const auto makespan_rank = run_ends(makespan, by_makespan);
  const auto func_rel_rank = run_ends(func_rel, by_func_rel);

  // Cell (a, b) is FEAS at makespan <= the a-th smallest makespan and
  // func_rel >= the b-th highest func_rel, so a cell inside a run of equal
  // values stands for the whole run: only each run's last row and column are
  // computed, and the rest copy them. Walking a row in func_rel order grows
  // FEAS one run at a time; its tight cell (a*, b*) is the largest makespan
  // rank and func_rel rank among its points. That cell lies at or before
  // (a, b) in row-major order, so its class is already known unless it is
  // (a, b) itself, which then opens a new class.
  const std::size_t cols = func_rels_.size() + 1;
  classes_.assign((makespans_.size() + 1) * cols, kNoClass);
  for (std::size_t lo = 0; lo < makespans_.size();) {
    const std::size_t a = makespan_rank[by_makespan[lo]];
    const double limit = makespans_[a - 1];
    std::uint32_t* row = classes_.data() + a * cols;
    std::uint32_t a_star = 0, b_star = 0;
    for (std::size_t first = 0; first < func_rels_.size();) {
      const std::size_t b = func_rel_rank[by_func_rel[first]];
      for (std::size_t j = first; j < b; ++j) {
        const std::uint32_t i = by_func_rel[j];
        if (makespan[i] <= limit) {
          a_star = std::max(a_star, makespan_rank[i]);
          b_star = std::max(b_star, func_rel_rank[i]);
        }
      }
      std::uint32_t id = kNoClass;
      if (b_star != 0) {
        id = a_star == a && b_star == b ? num_classes_++ : classes_[a_star * cols + b_star];
      }
      std::fill(row + first + 1, row + b + 1, id);
      first = b;
    }
    for (std::size_t r = lo + 1; r < a; ++r) {
      std::copy(row, row + cols, classes_.data() + r * cols);
    }
    lo = a;
  }
  slabs_.resize(n);
}

std::size_t DecisionTable::makespan_count(double max_makespan) const {
  // The predicate of QosSpec::satisfied_by: false for every point at NaN.
  return static_cast<std::size_t>(
      std::partition_point(makespans_.begin(), makespans_.end(),
                           [&](double s) { return s <= max_makespan; }) -
      makespans_.begin());
}

std::size_t DecisionTable::func_rel_count(double min_func_rel) const {
  return static_cast<std::size_t>(
      std::partition_point(func_rels_.begin(), func_rels_.end(),
                           [&](double f) { return f >= min_func_rel; }) -
      func_rels_.begin());
}

bool DecisionTable::bound_to(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc) const {
  return &db == db_ && &drc == drc_ && same_bits(p_rc, p_rc_);
}

std::size_t DecisionTable::bytes() const {
  return (makespans_.size() + func_rels_.size()) * sizeof(double) +
         classes_.size() * sizeof(std::uint32_t) + slab_bytes_;
}

std::uint16_t& DecisionTable::entry(std::size_t current, std::uint32_t cls) {
  std::vector<std::uint16_t>& slab = slabs_[current];
  if (slab.empty()) {
    slab.assign(num_classes_, kUnfilled);
    slab_bytes_ += num_classes_ * sizeof(std::uint16_t);
  }
  return slab[cls];
}

UraPolicy::UraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc,
                     DecisionTable* table)
    : db_(&db),
      drc_(&drc),
      p_rc_(p_rc),
      table_(table),
      feas_(db.size()),
      feas_drc_(db.size()),
      feas_perf_(db.size()),
      feas_ret_(db.size()) {
  if (db.empty()) throw std::invalid_argument("UraPolicy: empty database");
  if (drc.size() != db.size()) {
    throw std::invalid_argument("UraPolicy: drc size must match db size");
  }
  if (p_rc < 0.0 || p_rc > 1.0) throw std::invalid_argument("UraPolicy: pRC must be in [0,1]");
  if (table != nullptr && !table->bound_to(db, drc, p_rc)) {
    throw std::invalid_argument(
        "UraPolicy: decision table is bound to another database, DrcMatrix or pRC");
  }
  // Database-global scales for the *learning* reward: unlike the per-event
  // FEAS normalization of Algorithm 1 (which ranks candidates), the reward
  // fed to AuRA's value updates must be stationary across events, or the
  // learned values average incomparable quantities.
  const auto r = db.ranges();
  global_energy_lo_ = r.energy_min;
  global_energy_hi_ = r.energy_max;
  global_drc_hi_ = drc.max_drc();
}

Decision UraPolicy::decide(std::size_t current, const dse::QosSpec& spec,
                           const std::vector<double>* state_values, double gamma, double guard) {
  // A dead point shrinks FEAS below what the cell says; with every point
  // alive (transient faults only) the mask changes nothing.
  if (table_ == nullptr || (health() != nullptr && health()->num_alive_points() != db_->size())) {
    return evaluate_and_pick(current, spec, state_values, gamma, guard);
  }
  DecisionTable& table = *table_;
  ++table.counters_.lookups;
  const std::uint32_t cls = table.feas_class(spec);
  if (cls == DecisionTable::kNoClass) {
    ++table.counters_.empty;
    return evaluate_and_pick(current, spec, state_values, gamma, guard);
  }
  std::uint16_t& entry = table.entry(current, cls);
  if (entry < DecisionTable::kBandTie) {
    ++table.counters_.hits;
    Decision d;
    d.point = entry;
    d.drc = drc_->row(current)[d.point];
    d.reward = global_reward(d.point, d.drc);
    return d;
  }
  if (entry == DecisionTable::kBandTie) {
    ++table.counters_.band_ties;
    return evaluate_and_pick(current, spec, state_values, gamma, guard);
  }
  // First lookup of this key. The band is counted at the table's guard (uRA
  // passes no guard of its own); with one candidate in it, the lookahead
  // has nothing to arbitrate, so the pick holds for every value function.
  ++table.counters_.fills;
  std::size_t in_band = 0;
  const Decision d =
      evaluate_and_pick(current, spec, state_values, gamma, table.guard(), &in_band);
  entry = in_band == 1 ? static_cast<std::uint16_t>(d.point) : DecisionTable::kBandTie;
  return d;
}

Decision UraPolicy::evaluate_and_pick(std::size_t current, const dse::QosSpec& spec,
                                      const std::vector<double>* state_values, double gamma,
                                      double guard, std::size_t* in_band) {
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
  // toward states with better long-run returns. guard = 0 means the
  // lookahead arbitrates *exact* ties only — any positive band, however
  // small, would admit candidates strictly worse on the immediate objective
  // and break the γ=0/guard=0 uRA subsumption.
  const double band = std::max(guard, 0.0);
  if (in_band != nullptr) {
    std::size_t count = 0;
    for (std::size_t k = 0; k < m; ++k) count += !(immediate[k] + band < best_imm);
    *in_band = count;
  }
  if (state_values != nullptr && gamma > 0.0) {
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
  return decide(current, spec, nullptr, 0.0, 0.0);
}

AuraPolicy::AuraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc,
                       Params params, DecisionTable* table)
    : UraPolicy(db, drc, p_rc, table), params_(params) {
  if (params.gamma < 0.0 || params.gamma >= 1.0) {
    throw std::invalid_argument("AuraPolicy: gamma must be in [0,1)");
  }
  if (params.alpha <= 0.0 || params.alpha > 1.0) {
    throw std::invalid_argument("AuraPolicy: alpha must be in (0,1]");
  }
  if (table != nullptr && !same_bits(table->guard(), params.guard)) {
    throw std::invalid_argument("AuraPolicy: decision table is bound to another guard");
  }
  values_.assign(db.size(), params.initial_value);
  visits_.assign(db.size(), 0);
}

AuraPolicy::AuraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc)
    : AuraPolicy(db, drc, p_rc, Params{}) {}

Decision AuraPolicy::select(std::size_t current, const dse::QosSpec& spec) {
  Decision d = decide(current, spec, &values_, params_.gamma, params_.guard);
  if (learning_) episode_.emplace_back(d.point, d.reward);
  return d;
}

Decision AuraPolicy::select_initial(std::size_t hint, const dse::QosSpec& spec) {
  // The t=0 placement is free: the "current" hint was never occupied, so the
  // dRC its reward would charge was never paid. Keep it out of the episode.
  return decide(hint, spec, &values_, params_.gamma, params_.guard);
}

Decision AuraPolicy::peek(std::size_t current, const dse::QosSpec& spec) {
  // Speculative preview (prefetch staging): same evaluation as select(), but
  // never recorded — a mispredicted stage must not bias the value updates.
  return decide(current, spec, &values_, params_.gamma, params_.guard);
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
