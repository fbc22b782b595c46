#pragma once
// Stored design-point database — the artifact the design-time stage hands to
// the run-time agent (Fig. 3 "Design points database"). BaseD holds only the
// Pareto front; ReD additionally holds the reconfiguration-cost-aware
// non-dominant points of §4.2.1 (flagged `extra`).

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dse/mapping_problem.hpp"
#include "schedule/configuration.hpp"

namespace clr::dse {

/// One stored design point with its cached QoS/performance metrics.
struct DesignPoint {
  sched::Configuration config;
  double energy = 0.0;     ///< Japp (R = -Japp)
  double makespan = 0.0;   ///< Sapp
  double func_rel = 0.0;   ///< Fapp
  /// True for ReD's additional reconfiguration-cost-aware points.
  bool extra = false;

  bool feasible_for(const QosSpec& spec) const {
    return spec.satisfied_by(makespan, func_rel);
  }
};

/// Observed metric ranges over a database (for min-max normalization and for
/// deriving the run-time QoS process).
struct MetricRanges {
  double energy_min = 0.0, energy_max = 0.0;
  double makespan_min = 0.0, makespan_max = 0.0;
  double func_rel_min = 0.0, func_rel_max = 0.0;

  bool operator==(const MetricRanges&) const = default;
};

class DesignDb {
 public:
  DesignDb() = default;

  /// Add a point; rejects exact configuration duplicates. Returns the index
  /// of the stored (or pre-existing) point.
  std::size_t add(DesignPoint point);

  /// Pre-size the point storage (bulk loaders: snapshot materialization).
  void reserve(std::size_t n);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const DesignPoint& point(std::size_t i) const { return points_.at(i); }
  const std::vector<DesignPoint>& points() const { return points_; }

  /// Metric columns, index-aligned with points(): makespans()[i] ==
  /// point(i).makespan, and so on. add() is their only writer. The run-time
  /// policies scan these instead of the strided DesignPoints.
  const std::vector<double>& makespans() const { return makespan_; }
  const std::vector<double>& func_rels() const { return func_rel_; }
  const std::vector<double>& energies() const { return energy_; }

  /// The FEAS set of Algorithm 1: writes the indices of the points satisfying
  /// `spec` to the front of `out` in increasing order and returns how many
  /// there are. A non-null `point_alive` mask (size() entries; see
  /// flt::PlatformHealth) additionally drops points that died with a failed
  /// PE. `out` must hold size() entries (std::invalid_argument otherwise):
  /// the scan is a branch-free compaction that writes every index and
  /// advances past the feasible ones only. Never allocates.
  std::size_t feasible_into(const QosSpec& spec, std::span<std::size_t> out,
                            const std::vector<bool>* point_alive = nullptr) const;

  /// Index of the point minimizing total relative QoS violation — the
  /// fallback when no stored point satisfies the new spec. With a mask the
  /// search is restricted to alive points; throws std::logic_error when the
  /// mask excludes everything.
  std::size_t least_violating(const QosSpec& spec,
                              const std::vector<bool>* point_alive = nullptr) const;

  /// Total relative QoS violation of point `i` w.r.t. `spec` (0 = feasible):
  /// the measure least_violating() minimizes and the degraded-mode tolerance
  /// check compares against.
  double violation_of(std::size_t i, const QosSpec& spec) const;

  /// True when point `i` binds at least one task to `pe`.
  bool uses_pe(std::size_t i, plat::PeId pe) const;

  /// One past the largest PE id a stored point binds a task to (0 when none):
  /// a platform needs at least this many PEs to run every point. add() keeps it.
  std::size_t pe_bound() const { return pe_bound_; }

  /// Metric ranges over all stored points.
  MetricRanges ranges() const;

  /// Number of `extra` (ReD) points.
  std::size_t num_extra() const;

  /// All stored configurations (the reconfiguration targets for avg-dRC).
  std::vector<sched::Configuration> configurations() const;

  /// Database restricted to points that do not bind any task to `failed_pe`
  /// — the run-time reaction to a permanent PE fault (§4: "a permanent fault
  /// to one of the PEs resulting in reduced resource availability").
  DesignDb without_pe(plat::PeId failed_pe) const;

  /// Human-readable summary ("N points (M extra), S in [..], F in [..]").
  std::string summary() const;

 private:
  std::vector<DesignPoint> points_;
  std::vector<double> makespan_;
  std::vector<double> func_rel_;
  std::vector<double> energy_;
  std::size_t pe_bound_ = 0;
  /// hash_configuration -> stored indices with that hash. Dedup in add()
  /// probes the bucket with full Configuration equality (a collision degrades
  /// to an extra comparison, never a wrong match), turning the archive-wide
  /// duplicate scan from O(n) per insert into O(1) amortized.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
};

/// In-memory 64-bit hash of a configuration's decision variables for the
/// DesignDb dedup index: util::WordHasher over (pe, impl, clr, priority) per
/// task, the same helper as moea::hash_genes. Never persisted.
std::uint64_t hash_configuration(const sched::Configuration& config);

}  // namespace clr::dse
