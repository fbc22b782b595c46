#include "dse/mapping_problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "schedule/batch.hpp"

namespace clr::dse {

namespace {

/// Per-thread reusable kernel state: the scratch arenas plus a decode
/// target, so steady-state evaluation (cache miss -> decode -> kernel)
/// performs zero heap allocations once warm. Shared across problems;
/// EvalScratch::bind / BatchScratch::bind and decode_into re-size on shape
/// changes.
struct ThreadEvalState {
  sched::EvalScratch scratch;
  sched::BatchScratch batch_scratch;
  sched::Configuration cfg;
  // evaluate_batch / evaluate_metrics_batch staging (reused, so the steady
  // state stays allocation-free once the vectors have grown to batch size).
  std::vector<std::size_t> miss_idx;
  std::vector<const std::vector<int>*> gene_ptrs;
  std::vector<dse::ScheduleMetrics> metrics;
};

ThreadEvalState& thread_eval_state() {
  thread_local ThreadEvalState state;
  return state;
}

/// A gene read as an index modulo `n`; genes already in the domain (the
/// common case) skip the division.
std::size_t wrap(int gene, std::size_t n) {
  const auto u = static_cast<std::size_t>(gene);
  return u < n ? u : u % n;
}

}  // namespace

MappingProblem::MappingProblem(const sched::EvalContext& ctx, QosSpec spec, ObjectiveMode mode,
                               std::vector<plat::PeId> excluded_pes)
    : ctx_(&ctx), compiled_(ctx), spec_(spec), mode_(mode), num_tasks_(ctx.graph->num_tasks()) {
  ctx.check();
  if (spec.max_makespan <= 0.0) throw std::invalid_argument("MappingProblem: SSPEC must be > 0");
  if (spec.min_func_rel < 0.0 || spec.min_func_rel > 1.0) {
    throw std::invalid_argument("MappingProblem: FSPEC must be in [0,1]");
  }

  allowed_pes_.resize(num_tasks_);
  compat_impls_.resize(num_tasks_);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    for (const auto& pe : ctx.platform->pes()) {
      if (std::find(excluded_pes.begin(), excluded_pes.end(), pe.id) != excluded_pes.end()) {
        continue;
      }
      auto compat = ctx.impls->compatible_with(t, pe.type);
      if (compat.empty()) continue;
      allowed_pes_[t].push_back(pe.id);
      compat_impls_[t].push_back(std::move(compat));
    }
    if (allowed_pes_[t].empty()) {
      throw std::invalid_argument("MappingProblem: task has no runnable PE");
    }
    std::size_t max_impls = 1;  // implementation slot, decoded modulo the bound PE's count
    for (const auto& c : compat_impls_[t]) max_impls = std::max(max_impls, c.size());
    domain_sizes_.insert(domain_sizes_.end(), {static_cast<int>(allowed_pes_[t].size()),
                                               static_cast<int>(max_impls),
                                               static_cast<int>(ctx.clr_space->size()),
                                               static_cast<int>(num_tasks_)});
  }
}

int MappingProblem::domain_size(std::size_t locus) const {
  if (locus >= domain_sizes_.size()) throw std::out_of_range("MappingProblem: locus out of range");
  return domain_sizes_[locus];
}

sched::Configuration MappingProblem::decode(const std::vector<int>& genes) const {
  sched::Configuration cfg;
  decode_into(genes, &cfg);
  return cfg;
}

void MappingProblem::decode_into(const std::vector<int>& genes, sched::Configuration* out) const {
  if (genes.size() != num_genes()) throw std::invalid_argument("decode: gene count mismatch");
  sched::Configuration& cfg = *out;
  cfg.tasks.resize(num_tasks_);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const int g_pe = genes[4 * t];
    const int g_impl = genes[4 * t + 1];
    const int g_clr = genes[4 * t + 2];
    const int g_prio = genes[4 * t + 3];

    const std::size_t slot = wrap(g_pe, allowed_pes_[t].size());
    const auto& compat = compat_impls_[t][slot];
    sched::TaskAssignment& a = cfg[t];
    a.pe = allowed_pes_[t][slot];
    a.impl_index = static_cast<std::uint32_t>(compat[wrap(g_impl, compat.size())]);
    a.clr_index = static_cast<std::uint32_t>(wrap(g_clr, ctx_->clr_space->size()));
    a.priority = g_prio;
  }
}

std::vector<int> MappingProblem::encode(const sched::Configuration& cfg) const {
  if (cfg.size() != num_tasks_) throw std::invalid_argument("encode: configuration size mismatch");
  std::vector<int> genes(num_genes(), 0);
  for (tg::TaskId t = 0; t < num_tasks_; ++t) {
    const auto& a = cfg[t];
    const auto& pes = allowed_pes_[t];
    const auto it = std::find(pes.begin(), pes.end(), a.pe);
    if (it == pes.end()) throw std::invalid_argument("encode: PE not allowed for task");
    const auto slot = static_cast<std::size_t>(it - pes.begin());
    const auto& compat = compat_impls_[t][slot];
    const auto impl_it = std::find(compat.begin(), compat.end(), a.impl_index);
    if (impl_it == compat.end()) throw std::invalid_argument("encode: impl not compatible");
    genes[4 * t] = static_cast<int>(slot);
    genes[4 * t + 1] = static_cast<int>(impl_it - compat.begin());
    genes[4 * t + 2] = static_cast<int>(a.clr_index);
    genes[4 * t + 3] = std::clamp(a.priority, 0, static_cast<int>(num_tasks_) - 1);
  }
  return genes;
}

sched::ScheduleResult MappingProblem::evaluate_schedule(const sched::Configuration& cfg) const {
  schedule_runs_.fetch_add(1, std::memory_order_relaxed);
  return compiled_.schedule(cfg, thread_eval_state().scratch);
}

ScheduleMetrics MappingProblem::evaluate_metrics(const std::vector<int>& genes) const {
  ScheduleMetrics m;
  if (schedule_cache_.lookup(genes, &m)) return m;
  // Miss: decode + kernel run against the calling thread's arena. Only the
  // memo store below touches the heap.
  ThreadEvalState& state = thread_eval_state();
  decode_into(genes, &state.cfg);
  schedule_runs_.fetch_add(1, std::memory_order_relaxed);
  m = ScheduleMetrics::of(compiled_.evaluate(state.cfg, state.scratch));
  schedule_cache_.store(genes, m);
  return m;
}

std::vector<double> MappingProblem::objectives_of(const ScheduleMetrics& m) const {
  switch (mode_) {
    case ObjectiveMode::EnergyQos:
      return {m.energy, m.makespan, -m.func_rel};
    case ObjectiveMode::CspQos:
      return {m.makespan, -m.func_rel};
    case ObjectiveMode::EnergyLifetime:
      return {m.energy, -m.system_mttf};
  }
  throw std::logic_error("MappingProblem: unknown objective mode");
}

void MappingProblem::evaluate_metrics_batch(std::span<const std::vector<int>* const> genes,
                                            std::span<const std::uint64_t> hashes,
                                            ScheduleMetrics* out) const {
  static_assert(sched::BatchGenomes::kLanes == 8,
                "BatchEvaluator's chunk size assumes 8-lane blocks");
  constexpr std::size_t kL = sched::BatchGenomes::kLanes;
  ThreadEvalState& state = thread_eval_state();

  // Resolve memo hits first; the misses are evaluated in SoA blocks. The
  // block composition is fixed by miss order, and each lane's result is
  // independent of its co-lanes, so partitioning can never change bits.
  state.miss_idx.clear();
  for (std::size_t i = 0; i < genes.size(); ++i) {
    if (!schedule_cache_.lookup(*genes[i], hashes[i], &out[i])) state.miss_idx.push_back(i);
  }

  sched::KernelMetrics km[kL];
  state.batch_scratch.genomes.bind(num_tasks_);
  for (std::size_t base = 0; base < state.miss_idx.size(); base += kL) {
    const std::size_t lanes = std::min(kL, state.miss_idx.size() - base);
    for (std::size_t l = 0; l < lanes; ++l) {
      decode_into(*genes[state.miss_idx[base + l]], &state.cfg);
      state.batch_scratch.genomes.set(l, state.cfg);
    }
    schedule_runs_.fetch_add(lanes, std::memory_order_relaxed);
    compiled_.evaluate_block(state.batch_scratch.genomes, lanes, state.batch_scratch, km);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t i = state.miss_idx[base + l];
      out[i] = ScheduleMetrics::of(km[l]);
      schedule_cache_.store(*genes[i], hashes[i], out[i]);
    }
  }
}

std::span<const ScheduleMetrics> MappingProblem::stage_metrics(
    std::span<moea::Individual* const> batch, std::span<const std::uint64_t> hashes) const {
  ThreadEvalState& state = thread_eval_state();
  state.gene_ptrs.clear();
  for (const moea::Individual* ind : batch) state.gene_ptrs.push_back(&ind->genes);
  state.metrics.resize(batch.size());
  evaluate_metrics_batch({state.gene_ptrs.data(), state.gene_ptrs.size()}, hashes,
                         state.metrics.data());
  return {state.metrics.data(), state.metrics.size()};
}

void MappingProblem::evaluate_batch(std::span<moea::Individual* const> batch,
                                    std::span<const std::uint64_t> hashes) const {
  const std::span<const ScheduleMetrics> metrics = stage_metrics(batch, hashes);
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i]->eval = evaluation_of(metrics[i]);
}

moea::Evaluation MappingProblem::evaluate(const std::vector<int>& genes) const {
  return evaluation_of(evaluate_metrics(genes));
}

moea::Evaluation MappingProblem::evaluation_of(const ScheduleMetrics& result) const {
  moea::Evaluation eval;
  eval.objectives = objectives_of(result);

  // Relative constraint violations against the Eq. (5) reference corner.
  double violation = 0.0;
  if (result.makespan > spec_.max_makespan) {
    violation += (result.makespan - spec_.max_makespan) / spec_.max_makespan;
  }
  if (result.func_rel < spec_.min_func_rel) {
    violation += (spec_.min_func_rel - result.func_rel) / std::max(spec_.min_func_rel, 1e-9);
  }
  eval.violation = violation;
  return eval;
}

}  // namespace clr::dse
