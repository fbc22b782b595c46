#include "schedule/compiled_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/simd.hpp"
#include "schedule/batch.hpp"
#include "schedule/batch_kernel_detail.hpp"

namespace clr::sched {

void EvalScratch::bind(std::size_t num_tasks, std::size_t num_pes) {
  // Fast path for the steady-state loop: a warm arena skips the dozen
  // resize() no-ops below (each still costs a size check per call).
  if (metric_row.size() == num_tasks && pe_free.size() == num_pes) return;
  metric_row.resize(num_tasks);
  start.resize(num_tasks);
  end.resize(num_tasks);
  pending.resize(num_tasks);
  ready.resize(num_tasks);
  order.resize(num_tasks);
  events.resize(2 * num_tasks);
  events2.resize(2 * num_tasks);
  run_off.resize(num_pes + 1);
  run_off2.resize(num_pes + 1);
  run_pos.resize(num_pes);
  pe_free.resize(num_pes);
  aging_rate.resize(num_pes);
  ready_count = 0;
  bucket_words = (num_tasks + 63) / 64;
  prio_bucket.resize(num_tasks * bucket_words);
}

CompiledGraph::CompiledGraph(const EvalContext& ctx) : ctx_(&ctx) {
  ctx.check();
  const tg::TaskGraph& g = *ctx.graph;
  num_tasks_ = g.num_tasks();
  num_pes_ = ctx.platform->num_pes();
  num_edges_ = g.num_edges();
  clr_size_ = ctx.clr_space->size();

  // --- CSR topology, preserving the per-task edge-insertion order the
  // pointer-based scheduler iterates in. ---
  out_off_.assign(num_tasks_ + 1, 0);
  in_off_.assign(num_tasks_ + 1, 0);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    out_off_[t + 1] = out_off_[t] + g.out_edges(t).size();
    in_off_[t + 1] = in_off_[t] + g.in_edges(t).size();
  }
  succ_.resize(num_edges_);
  succ_comm_.resize(num_edges_);
  pred_.resize(num_edges_);
  pred_comm_.resize(num_edges_);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    std::size_t k = out_off_[t];
    for (tg::EdgeId e : g.out_edges(t)) {
      succ_[k] = g.edge(e).dst;
      succ_comm_[k] = g.edge(e).comm_time;
      ++k;
    }
    k = in_off_[t];
    for (tg::EdgeId e : g.in_edges(t)) {
      pred_[k] = g.edge(e).src;
      pred_comm_[k] = g.edge(e).comm_time;
      ++k;
    }
  }
  topo_order_ = g.topological_order();

  // --- Per-task scalar tables. ---
  norm_crit_.resize(num_tasks_);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) norm_crit_[t] = g.normalized_criticality(t);

  // --- Platform tables. ---
  pe_type_of_.resize(num_pes_);
  for (plat::PeId p = 0; p < num_pes_; ++p) pe_type_of_[p] = ctx.platform->pe(p).type;
  comm_factor_.resize(num_pes_ * num_pes_);
  for (plat::PeId a = 0; a < num_pes_; ++a) {
    for (plat::PeId b = 0; b < num_pes_; ++b) {
      comm_factor_[a * num_pes_ + b] = ctx.platform->comm_factor(a, b);
    }
  }

  // --- Flattened implementation rows + the full Table 2 metric table. ---
  impl_off_.assign(num_tasks_ + 1, 0);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    impl_off_[t + 1] = impl_off_[t] + ctx.impls->for_task(t).size();
  }
  const std::size_t num_rows = impl_off_[num_tasks_];
  impl_pe_type_.resize(num_rows);
  exec_time_.resize(num_rows);
  metric_table_.resize(num_rows * clr_size_);
  const std::size_t num_types = ctx.platform->num_pe_types();
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const auto& impls = ctx.impls->for_task(t);
    for (std::size_t i = 0; i < impls.size(); ++i) {
      const std::size_t row = impl_off_[t] + i;
      const rel::Implementation& impl = impls[i];
      impl_pe_type_[row] = impl.pe_type;
      // An implementation referencing a PE type the platform doesn't have can
      // never pass the per-evaluation compatibility check, so its metric row
      // stays defaulted instead of tripping Platform::pe_type.
      if (impl.pe_type >= num_types) continue;
      const plat::PeType& pe_type = ctx.platform->pe_type(impl.pe_type);
      exec_time_[row] = impl.base_time * pe_type.perf_factor;
      for (std::size_t c = 0; c < clr_size_; ++c) {
        metric_table_[row * clr_size_ + c] =
            ctx.metrics.evaluate(impl, pe_type, ctx.clr_space->config(c));
      }
    }
  }

  kernel_table_.resize(metric_table_.size());
  for (std::size_t r = 0; r < metric_table_.size(); ++r) {
    const rel::TaskMetrics& tm = metric_table_[r];
    kernel_table_[r] = {tm.avg_ext, tm.avg_power, tm.err_prob, tm.mttf};
  }

  // --- Per-(task, PE) compatible implementations (ascending, matching
  // ImplementationSet::compatible_with). ---
  compat_off_.assign(num_tasks_ * num_pes_ + 1, 0);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const auto& impls = ctx.impls->for_task(t);
    for (plat::PeId p = 0; p < num_pes_; ++p) {
      const std::size_t cell = t * num_pes_ + p;
      std::size_t count = 0;
      for (const auto& impl : impls) {
        if (impl.pe_type == pe_type_of_[p]) ++count;
      }
      compat_off_[cell + 1] = compat_off_[cell] + count;
    }
  }
  compat_.resize(compat_off_.back());
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const auto& impls = ctx.impls->for_task(t);
    for (plat::PeId p = 0; p < num_pes_; ++p) {
      std::size_t k = compat_off_[t * num_pes_ + p];
      for (std::size_t i = 0; i < impls.size(); ++i) {
        if (impls[i].pe_type == pe_type_of_[p]) compat_[k++] = static_cast<std::uint32_t>(i);
      }
    }
  }

  // --- HEFT mean execution times, accumulated in the exact (PE, impl) order
  // of sched::mean_execution_time so the seeded ranks match bitwise. A task
  // with no (PE, impl) option gets NaN; the HEFT overloads throw on it. ---
  mean_exec_.resize(num_tasks_);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    double sum = 0.0;
    std::size_t count = 0;
    for (plat::PeId p = 0; p < num_pes_; ++p) {
      for (std::uint32_t i : compatible_impls(t, p)) {
        sum += exec_time_[impl_off_[t] + i];
        ++count;
      }
    }
    mean_exec_[t] = count > 0 ? sum / static_cast<double>(count)
                              : std::numeric_limits<double>::quiet_NaN();
  }
}

inline double CompiledGraph::earliest_start(const Configuration& cfg, tg::TaskId t,
                                            const EvalScratch& s) const {
  const plat::PeId pe = cfg[t].pe;
  double est = s.pe_free[pe];
  for (std::size_t k = in_off_[t]; k < in_off_[t + 1]; ++k) {
    const tg::TaskId src = pred_[k];
    // The product is computed unconditionally so the same-PE test selects
    // between two ready values (no data-dependent branch); a same-PE edge
    // still contributes exactly 0.0.
    const double cross = pred_comm_[k] * comm_factor_[cfg[src].pe * num_pes_ + pe];
    const double comm = cfg[src].pe != pe ? cross : 0.0;
    est = std::max(est, s.end[src] + comm);
  }
  return est;
}

KernelMetrics CompiledGraph::evaluate(const Configuration& cfg, EvalScratch& s) const {
  if (cfg.size() != num_tasks_) {
    throw std::invalid_argument("ListScheduler: configuration size mismatch");
  }
  s.bind(num_tasks_, num_pes_);

  // Resolve + validate each task's metric row (same checks, order and
  // messages as task_metrics_for in the pointer-based oracle,
  // tests/schedule/reference_scheduler.cpp). Task-to-PE counts are tallied
  // on the side so the power-event runs can be laid out before scheduling
  // starts.
  std::fill(s.run_off.begin(), s.run_off.end(), 0u);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const TaskAssignment& a = cfg[t];
    if (a.impl_index >= num_impls(t)) {
      throw std::invalid_argument("ListScheduler: impl_index out of range");
    }
    if (a.pe >= num_pes_) {
      throw std::invalid_argument("ListScheduler: PE id out of range");
    }
    const std::size_t row = impl_off_[t] + a.impl_index;
    if (impl_pe_type_[row] != pe_type_of_[a.pe]) {
      throw std::invalid_argument("ListScheduler: implementation incompatible with bound PE");
    }
    if (a.clr_index >= clr_size_) {
      throw std::invalid_argument("ListScheduler: clr_index out of range");
    }
    s.metric_row[t] = static_cast<std::uint32_t>(row * clr_size_ + a.clr_index);
    // The packed table is still large (rows × CLR configs) and each
    // evaluation touches n random rows of it; fetch them while the run
    // layout and ready set are being built so the scheduling loop below hits
    // warm lines.
    __builtin_prefetch(&kernel_table_[s.metric_row[t]]);
    s.run_off[a.pe + 1] += 2;
  }
  for (plat::PeId p = 0; p < num_pes_; ++p) s.run_off[p + 1] += s.run_off[p];
  for (plat::PeId p = 0; p < num_pes_; ++p) s.run_pos[p] = s.run_off[p];

  // --- Priority-driven list scheduling over the CSR arrays. Selection must
  // reproduce the reference exactly: highest priority first, ties broken by
  // lower task id. That winner is *unique* per round (ids are distinct), so
  // any structure yielding the (priority, id) argmax schedules the identical
  // sequence. When every priority lies in [0, n) — always true for decoded
  // genomes and HEFT seeds — the ready set is one id-bitmask per priority
  // level and selection is a word scan; arbitrary out-of-range priorities
  // take the linear-scan fallback below. ---
  std::fill(s.pe_free.begin(), s.pe_free.end(), 0.0);

  bool bucketable = true;
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const std::int32_t pr = cfg[t].priority;
    if (pr < 0 || static_cast<std::size_t>(pr) >= num_tasks_) {
      bucketable = false;
      break;
    }
  }

  std::size_t done = 0;
  bool zero_len = false;

  // Schedule one selected task: earliest start on its bound PE after all
  // predecessor data arrives, append it to the dispatch order, then emit its
  // power events into the PE's run.
  // A PE executes its tasks back to back, so each run stays sorted by
  // (time, delta) — except when a zero-length interval collides with a
  // neighbour at the same time stamp, which drops the Wapp sweep below back
  // to a full sort.
  const auto run_task = [&](tg::TaskId t) {
    const TaskAssignment& a = cfg[t];
    const double est = earliest_start(cfg, t, s);
    const PackedMetrics& tm = kernel_table_[s.metric_row[t]];
    s.start[t] = est;
    s.end[t] = est + tm.avg_ext;
    s.pe_free[a.pe] = s.end[t];
    s.order[done++] = t;

    const std::uint32_t slot = s.run_pos[a.pe];
    s.run_pos[a.pe] = slot + 2;
    if (s.start[t] == s.end[t]) {
      zero_len = true;
      s.events[slot] = {s.end[t], -tm.avg_power};
      s.events[slot + 1] = {s.start[t], tm.avg_power};
    } else {
      s.events[slot] = {s.start[t], tm.avg_power};
      s.events[slot + 1] = {s.end[t], -tm.avg_power};
    }
  };

  if (bucketable) {
    const std::size_t W = s.bucket_words;
    std::fill(s.prio_bucket.begin(), s.prio_bucket.end(), 0);
    std::ptrdiff_t cur_max = -1;
    const auto push = [&](tg::TaskId t) {
      const auto pr = static_cast<std::size_t>(cfg[t].priority);
      s.prio_bucket[pr * W + (t >> 6)] |= std::uint64_t{1} << (t & 63);
      if (static_cast<std::ptrdiff_t>(pr) > cur_max) cur_max = static_cast<std::ptrdiff_t>(pr);
    };
    for (tg::TaskId t = 0; t < num_tasks_; ++t) {
      s.pending[t] = static_cast<std::uint32_t>(in_off_[t + 1] - in_off_[t]);
      if (s.pending[t] == 0) push(t);
    }
    while (done < num_tasks_) {
      std::size_t w = 0;
      while (cur_max >= 0) {
        const std::uint64_t* row = s.prio_bucket.data() + static_cast<std::size_t>(cur_max) * W;
        for (w = 0; w < W && row[w] == 0; ++w) {
        }
        if (w < W) break;
        --cur_max;
      }
      if (cur_max < 0) {
        throw std::logic_error("ListScheduler: no ready task (cyclic graph?)");
      }
      std::uint64_t& word = s.prio_bucket[static_cast<std::size_t>(cur_max) * W + w];
      const auto t = static_cast<tg::TaskId>(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;  // pop the lowest id at the highest priority
      run_task(t);
      for (std::size_t k = out_off_[t]; k < out_off_[t + 1]; ++k) {
        const tg::TaskId dst = succ_[k];
        if (--s.pending[dst] == 0) push(dst);
      }
    }
  } else {
    s.ready_count = 0;
    for (tg::TaskId t = 0; t < num_tasks_; ++t) {
      s.pending[t] = static_cast<std::uint32_t>(in_off_[t + 1] - in_off_[t]);
      if (s.pending[t] == 0) s.ready[s.ready_count++] = t;
    }
    while (done < num_tasks_) {
      if (s.ready_count == 0) {
        throw std::logic_error("ListScheduler: no ready task (cyclic graph?)");
      }
      std::size_t best = 0;
      for (std::size_t k = 1; k < s.ready_count; ++k) {
        const tg::TaskId a = s.ready[k];
        const tg::TaskId b = s.ready[best];
        if (cfg[a].priority != cfg[b].priority) {
          if (cfg[a].priority > cfg[b].priority) best = k;
        } else if (a < b) {
          best = k;
        }
      }
      const tg::TaskId t = s.ready[best];
      s.ready[best] = s.ready[--s.ready_count];
      run_task(t);
      for (std::size_t k = out_off_[t]; k < out_off_[t + 1]; ++k) {
        const tg::TaskId dst = succ_[k];
        if (--s.pending[dst] == 0) s.ready[s.ready_count++] = dst;
      }
    }
  }

  // --- Table 3 system metrics. The reference computes these in separate
  // per-task loops; makespan, Fapp and Japp are *independent* accumulators,
  // so interleaving them in one pass feeds each accumulator the identical
  // value sequence and the results stay bitwise equal. ---
  KernelMetrics m;
  double frel = 0.0;
  double energy = 0.0;
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    m.makespan = std::max(m.makespan, s.end[t]);
    const PackedMetrics& tm = kernel_table_[s.metric_row[t]];
    frel += (1.0 - tm.err_prob) * norm_crit_[t];
    energy += tm.avg_ext * tm.avg_power;
  }
  m.func_rel = frel;
  m.energy = energy;

  if (m.makespan > 0.0) {
    std::fill(s.aging_rate.begin(), s.aging_rate.end(), 0.0);
    for (tg::TaskId t = 0; t < num_tasks_; ++t) {
      const PackedMetrics& tm = kernel_table_[s.metric_row[t]];
      if (tm.mttf > 0.0) {
        s.aging_rate[cfg[t].pe] += (tm.avg_ext / m.makespan) / tm.mttf;
      }
    }
    double min_mttf = std::numeric_limits<double>::infinity();
    for (double rate : s.aging_rate) {
      if (rate > 0.0) min_mttf = std::min(min_mttf, 1.0 / rate);
    }
    m.system_mttf = std::isfinite(min_mttf) ? min_mttf : 0.0;
  }

  // Wapp sweep over the per-PE event runs (shared with the batched kernel;
  // see batch_kernel_detail.hpp for the determinism argument).
  if (zero_len) {
    m.peak_power = detail::sweep_sorted_events(s.events.data(), 2 * num_tasks_);
  } else {
    m.peak_power = detail::sweep_merge_runs(s.events.data(), s.events2.data(), s.run_off.data(),
                                            s.run_off2.data(), num_pes_, 2 * num_tasks_);
  }
  return m;
}

void CompiledGraph::evaluate_block(BatchGenomes& genomes, std::size_t lanes, BatchScratch& scratch,
                                   KernelMetrics* out) const {
  if (genomes.num_tasks() != num_tasks_) {
    throw std::invalid_argument("ListScheduler: configuration size mismatch");
  }
  scratch.bind(num_tasks_, num_pes_);
  genomes.pad(lanes);  // also range-checks `lanes`
  // Resolve the widest kernel instantiation this machine can run, once. Both
  // instantiations compute identical bits, so the choice is unobservable in
  // results (DESIGN.md §5.10).
#if defined(CLR_HAVE_AVX2_TU)
  static const bool use_avx2 = __builtin_cpu_supports("avx2");
  if (use_avx2) {
    detail::evaluate_block_avx2(*this, genomes, lanes, scratch, out);
    return;
  }
#endif
  detail::evaluate_block_portable(*this, genomes, lanes, scratch, out);
}

const char* CompiledGraph::batch_backend() {
#if defined(CLR_HAVE_AVX2_TU)
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  // This TU is built with the same baseline flags as the portable kernel TU,
  // so its compile-time simd backend is the one the portable path runs.
  return simd::kBackend;
}

void CompiledGraph::evaluate_batch(std::span<const Configuration> cfgs, BatchScratch& scratch,
                                   std::span<KernelMetrics> out) const {
  if (out.size() < cfgs.size()) {
    throw std::invalid_argument("evaluate_batch: output span smaller than input");
  }
  scratch.bind(num_tasks_, num_pes_);
  for (std::size_t base = 0; base < cfgs.size(); base += BatchGenomes::kLanes) {
    const std::size_t lanes = std::min(BatchGenomes::kLanes, cfgs.size() - base);
    for (std::size_t l = 0; l < lanes; ++l) scratch.genomes.set(l, cfgs[base + l]);
    evaluate_block(scratch.genomes, lanes, scratch, out.data() + base);
  }
}

double CompiledGraph::retime(const Configuration& cfg, std::span<const double> duration,
                             EvalScratch& s) const {
  if (cfg.size() != num_tasks_ || duration.size() != num_tasks_ ||
      s.order.size() != num_tasks_) {
    throw std::invalid_argument("CompiledGraph::retime: size mismatch");
  }
  std::fill(s.pe_free.begin(), s.pe_free.end(), 0.0);
  double makespan = 0.0;
  for (const tg::TaskId t : s.order) {
    const double est = earliest_start(cfg, t, s);
    s.start[t] = est;
    s.end[t] = est + duration[t];
    s.pe_free[cfg[t].pe] = s.end[t];
    makespan = std::max(makespan, s.end[t]);
  }
  return makespan;
}

ScheduleResult CompiledGraph::schedule(const Configuration& cfg, EvalScratch& s) const {
  const KernelMetrics m = evaluate(cfg, s);
  ScheduleResult result;
  result.tasks.resize(num_tasks_);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    result.tasks[t].start = s.start[t];
    result.tasks[t].end = s.end[t];
    result.tasks[t].metrics = metric_table_[s.metric_row[t]];
  }
  result.makespan = m.makespan;
  result.func_rel = m.func_rel;
  result.peak_power = m.peak_power;
  result.energy = m.energy;
  result.system_mttf = m.system_mttf;
  return result;
}

}  // namespace clr::sched
