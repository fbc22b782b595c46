#pragma once
// Run-time adaptation policies (paper §4.3):
//
//  - BaselinePolicy: the [11]-style purely performance-oriented selection —
//    on every event it moves to the feasible point with the best signed
//    hypervolume w.r.t. the new QoS corner, regardless of reconfiguration
//    cost (the behaviour BaseD exhibits in Fig. 6).
//  - UraPolicy: user-modulated run-time adaptation, Algorithm 1 —
//    RET(p) = pRC * norm(R(p)) - (1 - pRC) * norm(dRC(p)) over the feasible
//    stored points, normalized within the feasible set.
//  - AuraPolicy: agent-based uRA (§4.3.2) — every stored design point is an
//    RL state; selection adds a one-step lookahead of the learned state value
//    (gamma * V(p)), and values are updated by every-visit Monte-Carlo
//    returns over fixed-length episodes. gamma = 0 recovers uRA exactly.
//    Prior knowledge is injected by pre-training V with an offline
//    Monte-Carlo simulation of the same fixed policy (see RuntimeSimulator).
//
// Every policy checks that its DrcMatrix was built for its database and
// decides into scratch it sized at construction, so a warm decision never
// allocates. One policy object therefore serves one run (or fleet device) on
// one thread at a time.
//
// uRA and AuRA can also consult a DecisionTable: an exact memo of their
// decisions that one fleet worker owns and hands to each device's policy.

#include <cstdint>
#include <vector>

#include "dse/design_db.hpp"
#include "runtime/drc_matrix.hpp"

namespace clr::flt {
class PlatformHealth;
}

namespace clr::rt {

/// Outcome of one policy decision.
struct Decision {
  std::size_t point = 0;        ///< selected database index
  bool feasible_set_empty = false;  ///< no stored point satisfied the spec
  double drc = 0.0;             ///< reconfiguration cost from the current point
  double reward = 0.0;          ///< normalized immediate return (uRA's RET term)
};

/// Common interface: select the next stored design point for a new QoS spec.
class AdaptationPolicy {
 public:
  virtual ~AdaptationPolicy() = default;

  /// Pick the next point given the current one and the new requirement.
  virtual Decision select(std::size_t current, const dse::QosSpec& spec) = 0;

  /// Pick the initial point before the simulation starts (t = 0). `hint` is
  /// only a starting suggestion, never a point the system occupied — no dRC
  /// is paid — so learning policies must not record this decision into their
  /// episode (the reward would charge a cost from a state never visited).
  /// Defaults to the regular selection for memoryless policies.
  virtual Decision select_initial(std::size_t hint, const dse::QosSpec& spec) {
    return select(hint, spec);
  }

  /// Side-effect-free preview of select(): the point the policy WOULD pick
  /// for `spec` from `current`. Never records learning state — the prefetch
  /// wrapper uses this to stage a *predicted* requirement's target without
  /// perturbing the policy. Memoryless policies default to select(); learning
  /// policies must override with their episode-free evaluation.
  virtual Decision peek(std::size_t current, const dse::QosSpec& spec) {
    return select(current, spec);
  }

  /// Episode boundary notification (learning policies update values here).
  virtual void end_episode() {}

  /// Reset transient state between simulation runs (learned values persist).
  virtual void reset() {}

  /// Attach (or detach, with nullptr) the platform-health state of the
  /// current run. While attached, every selection is restricted to stored
  /// points whose PEs are all alive — the feasible set shrinks as permanent
  /// faults retire PEs. The simulator owns the health object; it attaches it
  /// at run start and detaches it before returning. Virtual so wrappers
  /// (PrefetchPolicy) can forward the attachment to their inner policy.
  virtual void set_health(const flt::PlatformHealth* health) { health_ = health; }
  const flt::PlatformHealth* health() const { return health_; }

 protected:
  /// Alive-mask over stored points, nullptr when no health is attached (the
  /// fault-free fast path: feasibility checks skip the mask entirely).
  const std::vector<bool>* alive_mask() const;

 private:
  const flt::PlatformHealth* health_ = nullptr;
};

/// Performance-oriented baseline: best signed hypervolume w.r.t. the QoS
/// corner on every event (reconfiguration-cost-blind).
class BaselinePolicy : public AdaptationPolicy {
 public:
  BaselinePolicy(const dse::DesignDb& db, const DrcMatrix& drc);
  Decision select(std::size_t current, const dse::QosSpec& spec) override;

 private:
  const dse::DesignDb* db_;
  const DrcMatrix* drc_;
  std::vector<std::size_t> feas_;  ///< FEAS scratch (db size)
  /// QoS corner in (S, -F, J) space (the energy term is database-global;
  /// select() writes the requirement's two terms), the per-dimension scale
  /// from the database ranges, and one candidate's objective vector.
  std::vector<double> ref_, scale_, objectives_;
};

/// Exact memo of uRA/AuRA decisions (DESIGN.md §5.16), keyed by
/// (current point, FEAS class).
///
/// FEAS = {makespan <= S} ∩ {func_rel >= F}. The first set is the a points
/// of least makespan and the second the b points of highest func_rel, ties
/// included either way, so the cell (a, b) fixes FEAS. A non-empty FEAS has
/// one tight cell: a* counts the points with makespan <= FEAS's largest
/// makespan, b* those with func_rel >= FEAS's smallest func_rel, and FEAS is
/// exactly A_a* ∩ B_b*. The constructor maps every cell to the id of its
/// tight cell in one O(n²) sweep, so cells share a class iff their FEAS sets
/// are equal.
///
/// An entry holds the uRA pick from `current` over the class's FEAS when
/// exactly one candidate lies in AuRA's guard band (no learned value can
/// change that pick), and a band-tie mark otherwise. Only UraPolicy's own
/// scan fills an entry, on the key's first lookup; a point's slab of entries
/// is allocated the first time it is current. An empty FEAS is never stored:
/// its fallback depends on the spec's values.
///
/// A table is bound to one (db, drc, pRC, guard), and UraPolicy/AuraPolicy
/// reject a table bound to anything else. It is not thread-safe: one fleet
/// worker owns one table.
class DecisionTable {
 public:
  /// Lookup outcomes since construction; hits + fills + empty + band_ties ==
  /// lookups.
  struct Counters {
    std::uint64_t lookups = 0;    ///< decisions that consulted the table
    std::uint64_t hits = 0;       ///< answered by a stored pick
    std::uint64_t fills = 0;      ///< first lookup of the key: scanned, then stored
    std::uint64_t empty = 0;      ///< empty FEAS: scanned
    std::uint64_t band_ties = 0;  ///< stored band-tie mark: scanned

    void merge(const Counters& other);
  };

  /// Marks a cell whose FEAS is empty.
  static constexpr std::uint32_t kNoClass = 0xFFFFFFFFu;

  /// Throws std::invalid_argument on an empty database, 65,535 or more
  /// points, a DrcMatrix of another size, or a pRC outside [0, 1].
  DecisionTable(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc, double guard);

  /// a: stored points with makespan <= max_makespan (0 for NaN).
  std::size_t makespan_count(double max_makespan) const;
  /// b: stored points with func_rel >= min_func_rel (0 for NaN).
  std::size_t func_rel_count(double min_func_rel) const;
  /// FEAS class of cell (a, b), or kNoClass when its FEAS is empty. `a` and
  /// `b` range over what makespan_count and func_rel_count can return.
  std::uint32_t class_of(std::size_t a, std::size_t b) const {
    return classes_[a * (func_rels_.size() + 1) + b];
  }
  std::uint32_t feas_class(const dse::QosSpec& spec) const {
    return class_of(makespan_count(spec.max_makespan), func_rel_count(spec.min_func_rel));
  }
  /// Distinct non-empty FEAS sets.
  std::uint32_t num_classes() const { return num_classes_; }

  /// True for exactly the (db, drc, pRC) the table was built for.
  bool bound_to(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc) const;
  double guard() const { return guard_; }

  const Counters& counters() const { return counters_; }
  /// Heap bytes held: the sorted columns, the cell→class map and every
  /// allocated slab.
  std::size_t bytes() const;

 private:
  friend class UraPolicy;
  static constexpr std::uint16_t kUnfilled = 0xFFFF;
  static constexpr std::uint16_t kBandTie = 0xFFFE;

  /// The entry of (current, cls); allocates current's slab on first use.
  std::uint16_t& entry(std::size_t current, std::uint32_t cls);

  const dse::DesignDb* db_;
  const DrcMatrix* drc_;
  double p_rc_;
  double guard_;
  /// Stored makespans ascending and func_rels descending, NaNs left out:
  /// a NaN point is never feasible, so it is in no A or B set.
  std::vector<double> makespans_, func_rels_;
  /// Row-major (makespans_.size() + 1) x (func_rels_.size() + 1) cell map.
  std::vector<std::uint32_t> classes_;
  std::uint32_t num_classes_ = 0;
  /// Per current point: num_classes_ entries, empty until first current.
  std::vector<std::vector<std::uint16_t>> slabs_;
  std::size_t slab_bytes_ = 0;
  Counters counters_;
};

/// Algorithm 1. pRC = 1 maximizes performance (energy reduction); pRC = 0
/// minimizes reconfiguration cost (stay put whenever feasible).
class UraPolicy : public AdaptationPolicy {
 public:
  /// A non-null `table` must be bound to (db, drc, p_rc) and outlive the
  /// policy; decisions are the same with or without it, bit for bit.
  UraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc,
            DecisionTable* table = nullptr);
  Decision select(std::size_t current, const dse::QosSpec& spec) override;

  double p_rc() const { return p_rc_; }

 protected:
  /// Every uRA/AuRA decision: a table hit when a table is attached, all
  /// points are alive and the key's entry holds a pick; otherwise
  /// evaluate_and_pick, which also fills the entry on the key's first lookup.
  Decision decide(std::size_t current, const dse::QosSpec& spec,
                  const std::vector<double>* state_values, double gamma, double guard);

  /// Shared evaluation core: returns RET per feasible point (plus lookahead
  /// hook used by AuRA). Handles the empty-feasible-set fallback. A non-null
  /// `in_band` receives the number of candidates within `guard` of the best
  /// immediate RET — the ones the lookahead weighs.
  Decision evaluate_and_pick(std::size_t current, const dse::QosSpec& spec,
                             const std::vector<double>* state_values, double gamma,
                             double guard, std::size_t* in_band = nullptr);

  /// Stationary (database-global) reward for the RL value updates:
  /// pRC * normR(point) - (1 - pRC) * norm(dRC paid), normalized over the
  /// whole database / cost table.
  double global_reward(std::size_t point, double paid_drc) const;

  const dse::DesignDb* db_;
  const DrcMatrix* drc_;
  double p_rc_;
  double global_energy_lo_ = 0.0;
  double global_energy_hi_ = 0.0;
  double global_drc_hi_ = 0.0;
  DecisionTable* table_;

 private:
  /// Decision scratch, db size each: FEAS, then per feasible candidate its
  /// dRC from the current point, R = -energy and the immediate RET.
  std::vector<std::size_t> feas_;
  std::vector<double> feas_drc_, feas_perf_, feas_ret_;
};

/// AuRA (§4.3.2): uRA with learned state-value lookahead.
class AuraPolicy : public UraPolicy {
 public:
  struct Params {
    double gamma = 0.5;   ///< discount factor (0 => uRA)
    double alpha = 0.05;  ///< value-function learning rate
    /// Guard band: the value lookahead only arbitrates among candidates
    /// whose immediate RET is within `guard` of the best immediate RET.
    /// 0 (default) restricts the lookahead to exact ties — the agent then
    /// can never do worse than uRA on the immediate objective and uses its
    /// learned values to resolve cost ties (e.g. between several free
    /// CLR-only reconfiguration targets). Larger values trade bounded
    /// immediate loss for speculative long-run gain.
    double guard = 0.0;
    /// Initial value for every state (uniform prior of the purely online
    /// agent; replaced by Monte-Carlo pre-training when prior knowledge is
    /// available).
    double initial_value = 0.0;
  };

  /// A non-null `table` must also be bound to params.guard.
  AuraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc, Params params,
             DecisionTable* table = nullptr);
  /// Defaults: gamma 0.5, alpha 0.05, guard 0 (exact ties), zero-valued prior.
  AuraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc);

  Decision select(std::size_t current, const dse::QosSpec& spec) override;
  /// Same selection as select(), but never recorded into the episode: the
  /// free initial placement must not bias the value updates.
  Decision select_initial(std::size_t hint, const dse::QosSpec& spec) override;
  /// Episode-free evaluation (speculative previews must not enter learning).
  Decision peek(std::size_t current, const dse::QosSpec& spec) override;
  void end_episode() override;
  void reset() override;

  const std::vector<double>& values() const { return values_; }
  void set_values(std::vector<double> values);
  const Params& rl_params() const { return params_; }

  /// Number of value updates each state has received.
  const std::vector<std::size_t>& visit_counts() const { return visits_; }

  /// Give states never visited during (pre-)training the mean value of the
  /// visited ones. Without this, an arbitrary initial value acts as a strong
  /// optimism/pessimism bias relative to the learned values and distorts the
  /// ranking (argmax only cares about value *differences*).
  void neutralize_unvisited();

  /// Freeze learning (used after offline pre-training when evaluating).
  void set_learning(bool enabled) { learning_ = enabled; }

 private:
  Params params_;
  std::vector<double> values_;
  std::vector<std::size_t> visits_;
  bool learning_ = true;
  /// (state, reward) trajectory of the current episode.
  std::vector<std::pair<std::size_t, double>> episode_;
};

}  // namespace clr::rt
