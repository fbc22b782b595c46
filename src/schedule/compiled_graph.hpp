#pragma once
// Flat, allocation-free schedule-evaluation kernel (DESIGN.md §5.9).
//
// Every DSE objective (Sapp/Fapp/Japp of Table 3, the hypervolume fitness of
// Eq. 5) funnels through one inner loop: ListScheduler over a candidate
// configuration followed by the Table 2/3 metric chain. The pointer-based
// reference path re-derives everything per evaluation — per-task metric
// bundles through MetricsModel (exp/tgamma), normalized criticalities (an
// O(n) sum per task), edge lists behind two indirections, and a fresh set of
// heap-allocated working vectors.
//
// CompiledGraph hoists all of that out of the loop, once per problem:
//   - graph topology in CSR form (successor/predecessor arrays with the edge
//     communication times inlined next to the endpoints),
//   - the Kahn topological order and HEFT mean execution times / compatible
//     implementation lists per (task, PE),
//   - the full Table 2 metric table for every (task, implementation, CLR
//     config) triple, flattened into contiguous rows,
//   - normalized criticalities and the PE×PE communication-factor matrix.
//
// Steady-state evaluation then runs against a caller-owned EvalScratch arena
// (one per thread) and performs zero heap allocations. Results are
// bit-identical to the original pointer-based scheduler at any thread count:
// the kernel performs the same floating-point operations in the same order
// (see the determinism contract in DESIGN.md §5.9 and tests/schedule/
// test_differential.cpp, which proves exact equality over fuzzed graphs
// against that scheduler, kept as tests/schedule/reference_scheduler.*).

#include <cstdint>
#include <span>
#include <vector>

#include "reliability/metrics.hpp"
#include "schedule/configuration.hpp"
#include "schedule/scheduler.hpp"

namespace clr::sched {

class BatchGenomes;
struct BatchScratch;
namespace detail {
struct BatchKernelAccess;
}

/// Scalar Table 3 bundle produced by one kernel evaluation (the per-task
/// windows stay in the scratch arena; see EvalScratch::start/end).
struct KernelMetrics {
  double makespan = 0.0;    ///< Sapp
  double func_rel = 0.0;    ///< Fapp
  double peak_power = 0.0;  ///< Wapp
  double energy = 0.0;      ///< Japp
  double system_mttf = 0.0;
};

/// Reusable per-thread working memory for CompiledGraph::evaluate. All
/// vectors are sized on first use for a given (tasks, PEs) shape and then
/// reused; a warm scratch makes evaluation allocation-free (pinned by
/// tests/schedule/test_alloc_pinning.cpp).
struct EvalScratch {
  /// Power-profile sweep event (kept public so the arena owns the storage).
  struct Event {
    double time;
    double delta;
  };

  std::vector<std::uint32_t> metric_row;  ///< per task: row into the metric table
  std::vector<double> start;              ///< per task: SSTt of the last evaluation
  std::vector<double> end;                ///< per task: SETt of the last evaluation
  std::vector<std::uint32_t> pending;     ///< per task: unfinished predecessors
  std::vector<std::uint32_t> ready;       ///< ready set (first ready_count slots)
  /// Dispatch order of the last evaluation. It depends only on the graph and
  /// the priorities, never on durations, so CompiledGraph::retime can replay
  /// it with other durations.
  std::vector<tg::TaskId> order;
  /// 2n power events for the Wapp sweep, stored as one time-sorted run per PE
  /// (a PE executes its tasks back to back, so no global sort is needed; the
  /// sweep pairwise-merges the runs through the ping-pong buffer).
  std::vector<Event> events;
  std::vector<Event> events2;           ///< merge ping-pong buffer
  std::vector<std::uint32_t> run_off;   ///< per PE: first event slot of its run
  std::vector<std::uint32_t> run_off2;  ///< merged-run offsets (ping-pong)
  std::vector<std::uint32_t> run_pos;   ///< per PE: fill cursor into its run
  std::vector<double> pe_free;         ///< per PE: next free time
  std::vector<double> aging_rate;      ///< per PE: duty-cycle aging rate
  std::size_t ready_count = 0;
  /// Ready-set priority buckets: bucket_words bitmask words per priority
  /// level (task id = bit index), used when every priority is in [0, n).
  /// The scheduling loop pops every bit it sets, so the array is all-zero
  /// between evaluations; it is re-cleared defensively on entry because an
  /// invalid-configuration throw can abandon bits mid-run.
  std::vector<std::uint64_t> prio_bucket;
  std::size_t bucket_words = 0;

  /// Size the arena for a (tasks, PEs) shape; no-op (and allocation-free)
  /// when the shape is unchanged.
  void bind(std::size_t num_tasks, std::size_t num_pes);
};

/// The compiled evaluation context: built once per MappingProblem (or once
/// per call for the one-shot ListScheduler API), read-only afterwards and
/// safe to share across threads. Snapshots the EvalContext's MetricsModel at
/// build time — rebuild after mutating the context.
class CompiledGraph {
 public:
  /// Validates the context (EvalContext::check + implementation-set/graph
  /// size agreement) and precomputes all tables. Throws std::invalid_argument
  /// on an inconsistent context.
  explicit CompiledGraph(const EvalContext& ctx);

  std::size_t num_tasks() const { return num_tasks_; }
  std::size_t num_pes() const { return num_pes_; }
  std::size_t num_edges() const { return num_edges_; }
  const EvalContext& context() const { return *ctx_; }

  /// Evaluate `cfg` into the Table 3 metrics. Performs zero heap allocations
  /// once `scratch` is warm for this graph's shape. Per-task windows are left
  /// in scratch.start/scratch.end. Throws std::invalid_argument exactly like
  /// ListScheduler on incompatible/out-of-range assignments.
  KernelMetrics evaluate(const Configuration& cfg, EvalScratch& scratch) const;

  /// Full ScheduleResult (allocates the per-task vector); the same bits as
  /// evaluate() plus the per-task windows and Table 2 bundles.
  ScheduleResult schedule(const Configuration& cfg, EvalScratch& scratch) const;

  /// Re-time the dispatch order the last evaluate(cfg, scratch) left in
  /// scratch.order, with duration[t] in place of each task's AvgExT. The
  /// order depends only on the graph and the priorities, so the result is
  /// the list schedule for those durations. Leaves the windows in
  /// scratch.start/scratch.end and returns the makespan; with each task's
  /// avg_ext it reproduces evaluate()'s windows bit for bit. `cfg` must be
  /// the configuration of that evaluation. Allocation-free.
  double retime(const Configuration& cfg, std::span<const double> duration,
                EvalScratch& scratch) const;

  /// Batched evaluation (DESIGN.md §5.10): cfgs[i] -> out[i], processed in
  /// SoA blocks of BatchGenomes::kLanes through the SIMD kernel. Results are
  /// bit-identical to evaluate() per configuration at any batch size and any
  /// caller-side partitioning; zero heap allocations once `scratch` is warm.
  /// Throws like evaluate() on invalid configurations (when several are
  /// invalid, which one's exception surfaces first may differ from the
  /// sequential order). out.size() must be >= cfgs.size().
  void evaluate_batch(std::span<const Configuration> cfgs, BatchScratch& scratch,
                      std::span<KernelMetrics> out) const;

  /// One SoA block: evaluate lanes [0, lanes) of `genomes` into out[0..lanes).
  /// Pads the unused lanes itself (see BatchGenomes::pad). Per-task windows
  /// of the block are left in scratch.start/scratch.end ([task][lane]
  /// layout). The backend (AVX2 vs portable) is picked once at runtime;
  /// both compute identical bits.
  void evaluate_block(BatchGenomes& genomes, std::size_t lanes, BatchScratch& scratch,
                      KernelMetrics* out) const;

  /// Name of the batch-kernel backend the runtime dispatcher selects on this
  /// machine ("avx2" or the portable TU's simd backend). Provenance only —
  /// both backends compute identical bits.
  static const char* batch_backend();

  // --- CSR topology views (round-tripped against the pointer-based graph by
  // tests/taskgraph/test_graph_fuzz.cpp). ---

  /// Kahn topological order, identical to TaskGraph::topological_order().
  std::span<const tg::TaskId> topo_order() const { return topo_order_; }

  /// Successor task ids of `t` in edge-insertion order.
  std::span<const tg::TaskId> successors(tg::TaskId t) const {
    return {succ_.data() + out_off_[t], out_off_[t + 1] - out_off_[t]};
  }
  /// Predecessor task ids of `t` in edge-insertion order.
  std::span<const tg::TaskId> predecessors(tg::TaskId t) const {
    return {pred_.data() + in_off_[t], in_off_[t + 1] - in_off_[t]};
  }
  /// Communication times aligned with successors(t) / predecessors(t).
  std::span<const double> successor_comm(tg::TaskId t) const {
    return {succ_comm_.data() + out_off_[t], out_off_[t + 1] - out_off_[t]};
  }
  std::span<const double> predecessor_comm(tg::TaskId t) const {
    return {pred_comm_.data() + in_off_[t], in_off_[t + 1] - in_off_[t]};
  }

  // --- Flattened cost/reliability tables (consumed by the kernel and the
  // HEFT seeding overloads in schedule/heft.hpp). ---

  /// Number of implementations available for task `t`.
  std::size_t num_impls(tg::TaskId t) const { return impl_off_[t + 1] - impl_off_[t]; }

  /// Precomputed Table 2 bundle for (task, implementation, CLR config);
  /// bit-identical to MetricsModel::evaluate on the same triple.
  const rel::TaskMetrics& metrics_for(tg::TaskId t, std::uint32_t impl_index,
                                      std::uint32_t clr_index) const {
    return metric_table_[(impl_off_[t] + impl_index) * clr_size_ + clr_index];
  }

  /// HEFT execution time of (task, implementation) on any compatible PE:
  /// base_time × perf_factor of the implementation's PE type.
  double exec_time(tg::TaskId t, std::uint32_t impl_index) const {
    return exec_time_[impl_off_[t] + impl_index];
  }

  /// Implementation indices of task `t` compatible with PE `pe`, ascending
  /// (the CSR replacement for ImplementationSet::compatible_with, which
  /// returns a fresh vector per call).
  std::span<const std::uint32_t> compatible_impls(tg::TaskId t, plat::PeId pe) const {
    const std::size_t cell = t * num_pes_ + pe;
    return {compat_.data() + compat_off_[cell], compat_off_[cell + 1] - compat_off_[cell]};
  }

  /// Mean execution time over all (PE, implementation) options — bit-identical
  /// to sched::mean_execution_time on the same context.
  double mean_exec(tg::TaskId t) const { return mean_exec_[t]; }

  /// ζt (Eq. 2), identical to TaskGraph::normalized_criticality.
  double normalized_criticality(tg::TaskId t) const { return norm_crit_[t]; }

  /// Platform::comm_factor(a, b), precomputed as a dense matrix.
  double comm_factor(plat::PeId a, plat::PeId b) const {
    return comm_factor_[a * num_pes_ + b];
  }

 private:
  /// The batched kernel lives in separate translation units (portable and
  /// -mavx2 instantiations of batch_kernel.inl) and reads the tables below
  /// through this accessor.
  friend struct detail::BatchKernelAccess;

  /// Earliest start of `t` on its bound PE: the PE is free and every
  /// predecessor's data has arrived (cross-PE edges pay the edge's
  /// communication time). The one scalar EST expression; evaluate() and
  /// retime() share it.
  double earliest_start(const Configuration& cfg, tg::TaskId t, const EvalScratch& s) const;

  const EvalContext* ctx_;
  std::size_t num_tasks_ = 0;
  std::size_t num_pes_ = 0;
  std::size_t num_edges_ = 0;
  std::size_t clr_size_ = 0;

  // CSR topology. *_off_ has num_tasks_+1 entries; payload arrays are aligned.
  std::vector<std::size_t> out_off_, in_off_;
  std::vector<tg::TaskId> succ_, pred_;
  std::vector<double> succ_comm_, pred_comm_;
  std::vector<tg::TaskId> topo_order_;

  // Per-task scalar tables.
  std::vector<double> norm_crit_;
  std::vector<double> mean_exec_;

  // Implementation-indexed tables: impl_off_[t] is the first row of task t;
  // metric_table_ holds clr_size_ contiguous entries per row.
  std::vector<std::size_t> impl_off_;
  std::vector<plat::PeTypeId> impl_pe_type_;  ///< per row: required PE type
  std::vector<double> exec_time_;             ///< per row: HEFT exec time
  std::vector<rel::TaskMetrics> metric_table_;

  /// The subset of TaskMetrics the evaluation loop reads, packed to exactly
  /// half a cache line (the full 48-byte TaskMetrics straddles lines). The
  /// values are bitwise copies of metric_table_, so arithmetic on them is
  /// identical; the big table stays authoritative for metrics_for()/schedule.
  struct alignas(32) PackedMetrics {
    double avg_ext;
    double avg_power;
    double err_prob;
    double mttf;
  };
  std::vector<PackedMetrics> kernel_table_;

  // Per-(task, PE) compatible-implementation CSR.
  std::vector<std::size_t> compat_off_;
  std::vector<std::uint32_t> compat_;

  // Platform tables.
  std::vector<plat::PeTypeId> pe_type_of_;
  std::vector<double> comm_factor_;
};

}  // namespace clr::sched
