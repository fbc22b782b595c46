#pragma once
// rt::MdpPolicy — decision-theoretic stored-point selection (DESIGN.md §5.14).
//
// The QoS space is discretized into a makespan × reliability bin grid; the
// state is (QoS bin, active design point), the action the next design point.
// The transition kernel derives from the AR(1) QosProcess parameters (per
// dimension: a Gaussian step distribution integrated over the bin edges, the
// cross-dimension correlation dropped as a documented product approximation)
// and the fault-regime hazard rates (expected evacuation cost per event is
// folded into the reward). Solved OFFLINE by in-place value iteration with a
// policy-iteration fallback (runtime/mdp.hpp, proven optimal by
// tests/runtime/test_mdp_oracle.cpp); the runtime decision is a pure table
// lookup — deterministic, allocation-free — and, when the tabular pick misses
// the concrete requirement, a walk down the bin's points in value order.
//
// The resulting MdpTable is immutable and shareable (the fleet builds one per
// run and hands it to every device) and serializable as the `.clrdb`
// MdpPolicy section (io/snapshot.hpp). Its value order is derived once per
// table, by order_mdp_table, and never stored in a file.

#include <cstdint>
#include <vector>

#include "dse/design_db.hpp"
#include "faults/fault_model.hpp"
#include "runtime/drc_matrix.hpp"
#include "runtime/mdp.hpp"
#include "runtime/policy.hpp"
#include "runtime/qos_process.hpp"

namespace clr::rt {

/// Offline solve knobs for the tabular policy.
struct MdpPolicyParams {
  std::size_t makespan_bins = 6;   ///< QoS-bin grid resolution (makespan axis)
  std::size_t func_rel_bins = 6;   ///< QoS-bin grid resolution (reliability axis)
  double gamma = 0.9;              ///< discount factor of the offline solve
  double tolerance = 1e-10;        ///< value-iteration convergence tolerance
  std::size_t max_sweeps = 10000;  ///< VI sweep budget before the PI fallback
};

/// The solved tabular policy: one action (next point) and one value per
/// (QoS bin, current point) state. Plain data — buildable, comparable and
/// serializable without the DesignDb it was solved against.
struct MdpTable {
  std::uint32_t makespan_bins = 0;
  std::uint32_t func_rel_bins = 0;
  std::uint64_t num_points = 0;
  double gamma = 0.0;
  double p_rc = 0.0;
  /// The QoS box the bins partition (the QosProcess ranges).
  dse::MetricRanges ranges{};
  /// Greedy action per state, state = bin * num_points + current.
  std::vector<std::uint32_t> policy;
  /// Value function per state (same indexing).
  std::vector<double> values;
  /// Derived from `values` by order_mdp_table, never serialized: per bin, the
  /// points by decreasing value, ties by increasing index
  /// (value_order[bin * num_points + rank]).
  std::vector<std::uint32_t> value_order;

  std::size_t num_bins() const {
    return static_cast<std::size_t>(makespan_bins) * func_rel_bins;
  }
  std::size_t num_states() const { return num_bins() * static_cast<std::size_t>(num_points); }

  /// Row-major bin of a requirement (clamped into the grid).
  std::size_t bin_of(const dse::QosSpec& spec) const;
  std::size_t state_of(const dse::QosSpec& spec, std::size_t current) const {
    return bin_of(spec) * static_cast<std::size_t>(num_points) + current;
  }

  bool operator==(const MdpTable&) const = default;
};

/// Check `table` — its sizes, every action inside its num_points and every
/// value finite (the value order needs a strict weak order) — and derive its
/// value_order. Throws std::invalid_argument naming the first bad entry.
/// build_mdp_table and io::materialize call it; a hand-built table must pass
/// through it before an MdpPolicy reads it.
void order_mdp_table(MdpTable& table);

/// The validated MDP build_mdp_table solves: state = bin * points + current,
/// action = next point, one transition row per (bin, action) shared by every
/// current point. Throws as build_mdp_table does.
Mdp build_selection_mdp(const dse::DesignDb& db, const DrcMatrix& drc,
                        const dse::MetricRanges& ranges, double p_rc,
                        const QosProcessParams& qos, const flt::FaultParams& faults,
                        const MdpPolicyParams& params = {});

/// Build + solve the tabular policy offline. Deterministic (no RNG): the
/// kernel integrates the AR(1) step distribution analytically. Throws
/// std::invalid_argument on degenerate inputs (empty db, zero bins, a state
/// space above the 2^22 safety cap). Traced as an `rt.mdp_solve` span
/// (trace::Category::Runtime) carrying the solve's size and telemetry.
MdpTable build_mdp_table(const dse::DesignDb& db, const DrcMatrix& drc,
                         const dse::MetricRanges& ranges, double p_rc,
                         const QosProcessParams& qos, const flt::FaultParams& faults,
                         const MdpPolicyParams& params = {});

/// Tabular adaptation policy over a prebuilt (and possibly shared) table.
/// The table must outlive the policy, match the database size and carry its
/// value order (order_mdp_table): construction checks sizes only, so a fleet
/// validates its one table once, not once per device. Allocation-free.
class MdpPolicy : public AdaptationPolicy {
 public:
  MdpPolicy(const dse::DesignDb& db, const DrcMatrix& drc, const MdpTable& table);

  /// Allocation-free: a table lookup and a feasibility check. Only when the
  /// tabular pick misses the concrete spec or died with a PE, a walk down the
  /// bin's value order to the first usable point, which `current` replaces
  /// when it is usable and of equal value — the value-ranked argmax over FEAS
  /// with its tie-break toward `current`, without the feasibility scan.
  Decision select(std::size_t current, const dse::QosSpec& spec) override;
  Decision peek(std::size_t current, const dse::QosSpec& spec) override;

  const MdpTable& table() const { return *table_; }

 private:
  Decision decide(std::size_t current, const dse::QosSpec& spec);

  const dse::DesignDb* db_;
  const DrcMatrix* drc_;
  const MdpTable* table_;
};

}  // namespace clr::rt
