#include "experiments/runner.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace clr::exp {

namespace {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Baseline: return "baseline";
    case PolicyKind::Ura: return "ura";
    case PolicyKind::Aura: return "aura";
    case PolicyKind::Mdp: return "mdp";
  }
  return "unknown";
}

}  // namespace

ReplicatedStats replicate_stats(const std::vector<rt::RuntimeStats>& runs) {
  const auto summarize_runs = [&](auto rt::RuntimeStats::*field) {
    util::RunningStats acc;
    for (const auto& r : runs) acc.add(static_cast<double>(r.*field));
    return util::summarize(acc);
  };
  ReplicatedStats s;
  s.replications = runs.size();
#define CLR_REPLICATE(stat, fold, device, block, mean, replicated) \
  CLR_STAT_IF(replicated)(s.replicated = summarize_runs(&rt::RuntimeStats::stat);)
  CLR_RUNTIME_STATS(CLR_REPLICATE)
#undef CLR_REPLICATE
  return s;
}

std::size_t Runner::add_cell(RunnerCell cell) {
  if (cell.db == nullptr) throw std::invalid_argument("Runner::add_cell: db is required");
  if (cell.app == nullptr && cell.drc == nullptr) {
    throw std::invalid_argument("Runner::add_cell: either app or an explicit drc is required");
  }
  if (cell.drc != nullptr && cell.drc->size() != cell.db->size()) {
    throw std::invalid_argument("Runner::add_cell: drc size must match db size");
  }
  metrics_.counter("runner.cells").add();
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

std::vector<CellResult> Runner::run() { return run(RunnerControl{}).results; }

std::uint64_t Runner::grid_hash() const {
  const std::size_t reps = std::max<std::size_t>(config_.replications, 1);
  std::uint64_t h = util::kFnv1aBasis;
  util::fnv1a_value<std::uint64_t>(h, reps);
  util::fnv1a_value<std::uint64_t>(h, cells_.size());
  for (const auto& cell : cells_) {
    util::fnv1a_value<std::uint64_t>(h, cell.label.size());
    util::fnv1a(h, cell.label.data(), cell.label.size());
    util::fnv1a_value<std::uint64_t>(h, cell.seed);
    util::fnv1a_value<std::uint32_t>(h, static_cast<std::uint32_t>(cell.params.kind));
    util::fnv1a_value<double>(h, cell.params.p_rc);
    util::fnv1a_value<double>(h, cell.params.pretrain_cycles);
    util::fnv1a_value<std::uint64_t>(h, cell.params.pretrain_sweeps);
    util::fnv1a_value<std::uint8_t>(h, cell.params.pretrain ? 1 : 0);
    util::fnv1a_value<double>(h, cell.params.sim.total_cycles);
    util::fnv1a_value<double>(h, cell.params.sim.episode_cycles);
    util::fnv1a_value<double>(h, cell.params.faults.transient_rate);
    util::fnv1a_value<double>(h, cell.params.faults.pe_mtbf);
    util::fnv1a_value<double>(h, cell.params.faults.recovery_latency);
    util::fnv1a_value<double>(h, cell.params.faults.reexec_energy_factor);
    util::fnv1a_value<double>(h, cell.params.faults.qos_tolerance);
    util::fnv1a_value<double>(h, cell.params.faults.fallback_coverage);
    util::fnv1a_value<std::uint64_t>(h, cell.db->size());
    util::fnv1a_value<double>(h, cell.ranges.energy_min);
    util::fnv1a_value<double>(h, cell.ranges.energy_max);
    util::fnv1a_value<double>(h, cell.ranges.makespan_min);
    util::fnv1a_value<double>(h, cell.ranges.makespan_max);
    util::fnv1a_value<double>(h, cell.ranges.func_rel_min);
    util::fnv1a_value<double>(h, cell.ranges.func_rel_max);
    // New-policy knobs only enter the hash when they are actually in play,
    // so every pre-existing grid keeps its historical hash (checkpoints
    // recorded before this version still resume).
    if (cell.params.kind == PolicyKind::Mdp) {
      util::fnv1a_value<std::uint64_t>(h, cell.params.mdp.makespan_bins);
      util::fnv1a_value<std::uint64_t>(h, cell.params.mdp.func_rel_bins);
      util::fnv1a_value<double>(h, cell.params.mdp.gamma);
      util::fnv1a_value<double>(h, cell.params.mdp.tolerance);
      util::fnv1a_value<std::uint64_t>(h, cell.params.mdp.max_sweeps);
    }
    if (cell.params.prefetch) {
      util::fnv1a_value<std::uint8_t>(h, 1);
      util::fnv1a_value<std::uint64_t>(h, cell.params.prefetch_params.min_observations);
    }
  }
  return h;
}

RunOutcome Runner::run(const RunnerControl& control) {
  const std::size_t reps = std::max<std::size_t>(config_.replications, 1);
  const std::size_t total = cells_.size() * reps;

  // The restartable state (job = cell·reps + rep). A resume restores the
  // completed jobs' flags and stats; everything else is recomputed.
  RunnerProgress progress;
  progress.grid_hash = grid_hash();
  progress.replications = reps;
  progress.done.assign(total, 0);
  progress.runs.resize(total);
  if (control.resume != nullptr) {
    const RunnerProgress& p = *control.resume;
    if (p.grid_hash != progress.grid_hash) {
      throw std::invalid_argument(
          "Runner::run: resume progress was recorded for a different grid (hash mismatch)");
    }
    if (p.replications != reps) {
      throw std::invalid_argument("Runner::run: resume progress has " +
                                  std::to_string(p.replications) + " replications, grid has " +
                                  std::to_string(reps));
    }
    if (p.done.size() != total || p.runs.size() != total) {
      throw std::invalid_argument("Runner::run: resume progress spans " +
                                  std::to_string(p.done.size()) + " jobs, grid has " +
                                  std::to_string(total));
    }
    progress.done = p.done;
    progress.runs = p.runs;
  }

  util::ThreadPool pool(config_.jobs);
  bool stopped = control.stop.stop_requested();

  // Phase 1: one DrcMatrix per distinct (app, db) pair, built row-parallel.
  // Keyed on the pair because the model derives from the app's platform and
  // implementation sets while the table spans the db's stored points. Not
  // checkpointed: the tables are deterministic recomputations on resume.
  std::map<std::pair<const AppInstance*, const dse::DesignDb*>, std::unique_ptr<rt::DrcMatrix>>
      drc_cache;
  for (const auto& cell : cells_) {
    if (stopped || control.stop.stop_requested()) {
      stopped = true;
      break;
    }
    if (cell.drc != nullptr) continue;
    const auto key = std::make_pair(cell.app, cell.db);
    if (drc_cache.count(key) > 0) {
      metrics_.counter("runner.drc_cache_hits").add();
      continue;
    }
    util::Timer::Scope span(metrics_.timer("runner.drc_build"));
    CLR_TRACE_SPAN(drc_span, trace::Category::Exp, "exp.drc_build",
                   {{"db_points", cell.db->size()}, {"label", cell.label}});
    recfg::ReconfigModel model(cell.app->platform(), cell.app->impls());
    drc_cache.emplace(key, std::make_unique<rt::DrcMatrix>(*cell.db, model, &pool));
    metrics_.counter("runner.drc_builds").add();
  }
  const auto cell_drc = [&](const RunnerCell& cell) {
    return cell.drc != nullptr ? cell.drc : drc_cache.at({cell.app, cell.db}).get();
  };

  // One offline MDP plan per MDP cell with pending jobs, solved in parallel
  // across cells and shared by the cell's replications. Planning draws no
  // randomness, so this is bit-identical to each job solving its own.
  std::vector<std::optional<rt::MdpTable>> mdp_tables(cells_.size());
  if (!stopped) {
    std::vector<std::size_t> to_solve;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (cells_[c].params.kind != PolicyKind::Mdp) continue;
      for (std::size_t r = 0; r < reps; ++r) {
        if (progress.done[c * reps + r] == 0) {
          to_solve.push_back(c);
          break;
        }
      }
    }
    pool.parallel_for(
        to_solve.size(),
        [&](std::size_t k) {
          const RunnerCell& cell = cells_[to_solve[k]];
          mdp_tables[to_solve[k]] =
              rt::build_mdp_table(*cell.db, *cell_drc(cell), cell.ranges, cell.params.p_rc,
                                  cell.params.qos, cell.params.faults, cell.params.mdp);
          metrics_.counter("runner.mdp_solves").add();
        },
        control.stop);
    stopped = control.stop.stop_requested();
  }

  // Phase 2: every pending (cell, replication) job on the pool at once. Each
  // job's seed derives only from (cell.seed, rep), and a worker publishes the
  // job under `publish`, the one lock over `progress`, with on_boundary
  // called under it. So neither the schedule nor a kill/resume cycle can
  // change any observable result. Traces stay out of `progress`. When
  // on_boundary throws, `failed` is set before the lock is released, so no
  // worker starts a job after it (as run_fleet's workers start no block).
  std::vector<std::vector<rt::EventRecord>> traces(total);
  std::vector<double> wall(total, 0.0);
  std::vector<std::uint8_t> fresh(total, 0);  ///< executed in THIS run (metrics)
  if (!stopped) {
    std::vector<std::size_t> pending;
    pending.reserve(total);
    for (std::size_t job = 0; job < total; ++job) {
      if (progress.done[job] == 0) pending.push_back(job);
    }
    CLR_TRACE_SPAN(grid_span, trace::Category::Exp, "exp.grid",
                   {{"cells", cells_.size()},
                    {"replications", reps},
                    {"jobs", config_.jobs},
                    {"pending", pending.size()}});
    std::mutex publish;
    std::atomic<bool> failed{false};
    pool.parallel_for(
        pending.size(),
        [&](std::size_t k) {
          if (failed.load(std::memory_order_relaxed)) return;
          const std::size_t job = pending[k];
          const std::size_t c = job / reps;
          const std::size_t r = job % reps;
          const RunnerCell& cell = cells_[c];
          CLR_TRACE_SPAN(cell_span, trace::Category::Exp, "exp.cell",
                         {{"cell", c},
                          {"rep", r},
                          {"label", cell.label},
                          {"policy", policy_name(cell.params.kind)},
                          {"p_rc", cell.params.p_rc},
                          {"fault_rate", cell.params.faults.transient_rate},
                          {"seed", util::substream_seed(cell.seed, r)}});
          const rel::ClrSpace* clr_space =
              cell.app != nullptr ? &cell.app->clr_space() : nullptr;
          const rt::MdpTable* mdp = mdp_tables[c] ? &*mdp_tables[c] : nullptr;
          const auto start = std::chrono::steady_clock::now();
          rt::RuntimeStats stats =
              evaluate_policy_with(*cell.db, *cell_drc(cell), cell.ranges, cell.params,
                                   util::substream_seed(cell.seed, r), clr_space, mdp);
          wall[job] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
          traces[job] = std::exchange(stats.trace, {});
          fresh[job] = 1;
          metrics_.counter("runner.jobs").add();
          const std::lock_guard<std::mutex> lock(publish);
          progress.runs[job] = std::move(stats);
          progress.done[job] = 1;
          try {
            if (control.on_boundary) control.on_boundary(progress);
          } catch (...) {
            failed.store(true, std::memory_order_relaxed);
            throw;
          }
        },
        control.stop);
  }

  // Phase 3: aggregate sequentially in cell/replication order over the
  // completed jobs. Restored and freshly-run stats are interchangeable here,
  // so a resumed grid's ReplicatedStats are bit-identical. Metrics count
  // only this run's work (restored jobs were counted by the original run).
  RunOutcome outcome;
  outcome.jobs_total = total;
  outcome.results.reserve(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    CellResult res;
    res.label = cells_[c].label;
    res.params = cells_[c].params;
    res.seed = cells_[c].seed;
    std::vector<rt::RuntimeStats> cell_runs;
    cell_runs.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      const std::size_t job = c * reps + r;
      if (progress.done[job] == 0) continue;
      outcome.jobs_done += 1;
      cell_runs.push_back(std::move(progress.runs[job]));
      cell_runs.back().trace = std::move(traces[job]);
      res.wall_ms += wall[job];
      if (fresh[job] != 0) {
        metrics_.counter("runner.events").add(cell_runs.back().num_events);
        metrics_.counter("runner.reconfigs").add(cell_runs.back().num_reconfigs);
      }
    }
    res.stats = replicate_stats(cell_runs);
    metrics_.timer("runner.cell").add_ns(static_cast<std::uint64_t>(res.wall_ms * 1e6));
    if (config_.keep_runs) res.runs = std::move(cell_runs);
    outcome.results.push_back(std::move(res));
  }
  outcome.complete = outcome.jobs_done == total;
  return outcome;
}

namespace {

io::Json summary_json(const util::Summary& s) {
  return io::JsonObject{{"mean", io::Json(s.mean)},   {"stddev", io::Json(s.stddev)},
                        {"ci95", io::Json(s.ci95)},   {"min", io::Json(s.min)},
                        {"max", io::Json(s.max)},     {"count", io::Json(s.count)}};
}

}  // namespace

io::Json grid_report(const std::string& experiment, const RunnerConfig& config,
                     const std::vector<CellResult>& results,
                     const util::MetricsRegistry* metrics, bool interrupted) {
  io::JsonArray cells;
  cells.reserve(results.size());
  for (const auto& res : results) {
    io::JsonObject cell{
        {"label", io::Json(res.label)},
        {"policy", io::Json(policy_name(res.params.kind))},
        {"p_rc", io::Json(res.params.p_rc)},
        {"seed", io::Json(res.seed)},
        {"replications", io::Json(res.stats.replications)},
        {"fault_rate", io::Json(res.params.faults.transient_rate)},
        {"pe_mtbf", io::Json(res.params.faults.pe_mtbf)},
        {"prefetch", io::Json(res.params.prefetch)},
    };
#define CLR_SUMMARY_KEY(stat, fold, device, block, mean, replicated) \
  CLR_STAT_IF(replicated)(cell.emplace_back(#replicated, summary_json(res.stats.replicated));)
    CLR_RUNTIME_STATS(CLR_SUMMARY_KEY)
#undef CLR_SUMMARY_KEY
    cell.emplace_back("wall_ms", io::Json(res.wall_ms));
    cells.emplace_back(std::move(cell));
  }

  io::JsonObject report{
      {"experiment", io::Json(experiment)},
      {"replications", io::Json(config.replications)},
      {"jobs", io::Json(config.jobs)},
      {"cells", io::Json(std::move(cells))},
  };
  // Only emitted on partial reports, so complete reports stay byte-stable
  // across versions.
  if (interrupted) report.emplace_back("interrupted", io::Json(true));
  if (metrics != nullptr) {
    io::JsonObject counters;
    for (const auto& c : metrics->counters()) counters.emplace_back(c.name, io::Json(c.value));
    io::JsonObject timers;
    for (const auto& t : metrics->timers()) {
      timers.emplace_back(t.name, io::Json(io::JsonObject{{"total_ms", io::Json(t.total_ms)},
                                                          {"spans", io::Json(t.count)}}));
    }
    report.emplace_back("counters", io::Json(std::move(counters)));
    report.emplace_back("timers", io::Json(std::move(timers)));
  }
  return io::Json(std::move(report));
}

}  // namespace clr::exp
