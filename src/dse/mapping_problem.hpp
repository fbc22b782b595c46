#pragma once
// The CLR-integrated task-mapping search space of Eq. (4):
//   Xapp = Π_t (Mt x Ct),  Mt = Pt x It x Qt
// encoded as 4 integer genes per task: PE binding (restricted to PEs with a
// compatible implementation), implementation choice, CLR-config index and
// list-scheduling priority.

#include <atomic>
#include <cstdint>
#include <vector>

#include "moea/eval_cache.hpp"
#include "moea/problem.hpp"
#include "schedule/compiled_graph.hpp"
#include "schedule/scheduler.hpp"

namespace clr::dse {

/// QoS specification (SSPEC, FSPEC) of Eq. (4): an upper bound on average
/// makespan and a lower bound on functional reliability.
struct QosSpec {
  double max_makespan = 0.0;  ///< SSPEC
  double min_func_rel = 0.0;  ///< FSPEC

  /// Branch-free (`&`, not `&&`): DesignDb::feasible_into compacts on it.
  bool satisfied_by(double makespan, double func_rel) const {
    return (makespan <= max_makespan) & (func_rel >= min_func_rel);
  }
};

/// Objective layout of the design-time problem.
enum class ObjectiveMode {
  /// {Japp, Sapp, -Fapp} — the full Eq. (5) trade-off space.
  EnergyQos,
  /// {Sapp, -Fapp} — the constraint-satisfaction variant of §5.2 (R(Xi)=0).
  CspQos,
  /// {Japp, -MTTF} under QoS constraints — the lifetime-optimization
  /// extension the paper suggests ("Other metrics such as MTTF can be added
  /// to R(Xi) for optimization of system lifetime").
  EnergyLifetime,
};

/// Scalar slice of a ScheduleResult — everything the DSE objectives and
/// design points consume. The per-task schedule is dropped so memo-cache
/// entries stay small.
struct ScheduleMetrics {
  double makespan = 0.0;
  double func_rel = 0.0;
  double peak_power = 0.0;
  double energy = 0.0;
  double system_mttf = 0.0;

  static ScheduleMetrics of(const sched::ScheduleResult& res) {
    return {res.makespan, res.func_rel, res.peak_power, res.energy, res.system_mttf};
  }
  static ScheduleMetrics of(const sched::KernelMetrics& m) {
    return {m.makespan, m.func_rel, m.peak_power, m.energy, m.system_mttf};
  }
};

/// moea::Problem adapter over the list-scheduler evaluation.
class MappingProblem : public moea::Problem {
 public:
  /// @param spec the reference QoS corner (max SSPEC / min FSPEC of Eq. 5);
  ///        configurations beyond it are constraint-violating.
  /// @param excluded_pes PEs removed from the binding domain — the paper's
  ///        reduced-resource-availability scenario (a permanent PE fault is
  ///        "a separate instance of this scenario with ... the number of
  ///        available PEs", §4). Throws when a task is left without any
  ///        runnable PE.
  MappingProblem(const sched::EvalContext& ctx, QosSpec spec, ObjectiveMode mode,
                 std::vector<plat::PeId> excluded_pes = {});

  std::size_t num_genes() const override { return 4 * num_tasks_; }
  int domain_size(std::size_t locus) const override;
  std::size_t num_objectives() const override {
    return mode_ == ObjectiveMode::EnergyQos ? 3 : 2;  // CspQos/EnergyLifetime: 2
  }
  moea::Evaluation evaluate(const std::vector<int>& genes) const override;

  /// Batched evaluation (DESIGN.md §5.10): resolves schedule-cache hits,
  /// then decodes the misses into SoA blocks and runs them through
  /// CompiledGraph::evaluate_batch. Bit-identical to per-genome evaluate()
  /// at any batch size/partitioning.
  void evaluate_batch(std::span<moea::Individual* const> batch,
                      std::span<const std::uint64_t> hashes) const override;

  /// Schedule metrics of every individual in `batch` (genome hashes in
  /// `hashes`), staged through evaluate_metrics_batch into the calling
  /// thread's scratch: the shared head of this evaluate_batch and
  /// RedProblem's. The span stays valid until the same thread stages again.
  std::span<const ScheduleMetrics> stage_metrics(std::span<moea::Individual* const> batch,
                                                 std::span<const std::uint64_t> hashes) const;

  /// Batched evaluate_metrics: out[i] receives evaluate_metrics(*genes[i]),
  /// with cache misses evaluated in SoA blocks through the SIMD kernel. The
  /// memo is probed and filled under hashes[i], which must be
  /// moea::hash_genes(*genes[i]) (a wrong hash only misses). Bit-identical to
  /// the scalar path; duplicate genomes within one call may each count as a
  /// schedule run (the scalar sequence would memo-hit the second), so callers
  /// wanting exact run counts should dedup first.
  void evaluate_metrics_batch(std::span<const std::vector<int>* const> genes,
                              std::span<const std::uint64_t> hashes, ScheduleMetrics* out) const;

  /// Decode a chromosome into a concrete configuration (always valid:
  /// PE/implementation compatibility is guaranteed by construction).
  sched::Configuration decode(const std::vector<int>& genes) const;

  /// decode() into caller-owned storage — allocation-free once `out` is warm
  /// for this problem's task count (the steady-state evaluation path).
  void decode_into(const std::vector<int>& genes, sched::Configuration* out) const;

  /// Inverse of decode (used to seed the ReD stage from BaseD points).
  /// Throws std::invalid_argument when cfg uses a (pe, impl) pair that the
  /// encoding cannot express.
  std::vector<int> encode(const sched::Configuration& cfg) const;

  /// Full schedule evaluation of a decoded configuration (uncached). Runs
  /// the flat CompiledGraph kernel — bit-identical to ListScheduler.
  sched::ScheduleResult evaluate_schedule(const sched::Configuration& cfg) const;

  /// Memoized decode + schedule keyed by chromosome: a genome is run through
  /// the ListScheduler at most once across the whole design-time flow —
  /// BaseD generations, every ReD run and DesignTimeDse::make_point all
  /// share this cache. Thread-safe.
  ScheduleMetrics evaluate_metrics(const std::vector<int>& genes) const;

  const sched::EvalContext& context() const { return *ctx_; }

  /// The flat evaluation kernel compiled from this problem's context (shared,
  /// read-only; used by the GA hot loop and the HEFT seeding overloads).
  const sched::CompiledGraph& compiled() const { return compiled_; }

  const QosSpec& spec() const { return spec_; }
  ObjectiveMode mode() const { return mode_; }

  /// Objective vector for a schedule result under this mode.
  std::vector<double> objectives_of(const ScheduleMetrics& m) const;

  /// Full Evaluation (objectives + Eq. (5) constraint violations) for
  /// already-computed metrics — the shared tail of evaluate() and
  /// evaluate_batch().
  moea::Evaluation evaluation_of(const ScheduleMetrics& m) const;
  std::vector<double> objectives_of(const sched::ScheduleResult& result) const {
    return objectives_of(ScheduleMetrics::of(result));
  }

  /// Actual ListScheduler invocations so far (memo misses + direct calls) —
  /// the "evals" of the throughput bench.
  std::uint64_t schedule_runs() const { return schedule_runs_.load(std::memory_order_relaxed); }

  /// The genome -> ScheduleMetrics memo (hit/miss/eviction counters).
  const moea::GenomeCache<ScheduleMetrics>& schedule_cache() const { return schedule_cache_; }

 private:
  const sched::EvalContext* ctx_;
  sched::CompiledGraph compiled_;
  QosSpec spec_;
  ObjectiveMode mode_;
  std::size_t num_tasks_;
  /// Per task: PEs that have at least one compatible implementation.
  std::vector<std::vector<plat::PeId>> allowed_pes_;
  /// Per task / per allowed-PE slot: compatible implementation indices.
  std::vector<std::vector<std::vector<std::size_t>>> compat_impls_;
  /// Per locus: domain_size(), built once from the two tables above.
  std::vector<int> domain_sizes_;
  mutable moea::GenomeCache<ScheduleMetrics> schedule_cache_{1 << 16};
  mutable std::atomic<std::uint64_t> schedule_runs_{0};
};

}  // namespace clr::dse
