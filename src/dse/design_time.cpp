#include "dse/design_time.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/parallel.hpp"
#include "schedule/heft.hpp"
#include "trace/trace.hpp"
#include <stdexcept>

namespace clr::dse {

RedProblem::RedProblem(const MappingProblem& mapping, const recfg::DrcTable& drc_table,
                       const DesignPoint& seed, const MetricRanges& base_ranges,
                       const DseConfig& cfg)
    : mapping_(&mapping),
      drc_table_(&drc_table),
      seed_(seed),
      base_ranges_(base_ranges),
      cfg_(&cfg) {
  if (drc_table.num_targets() == 0) throw std::invalid_argument("RedProblem: empty base set");
}

double RedProblem::average_drc(const std::vector<int>& genes) const {
  thread_local sched::Configuration decoded;  // warm after the first genome
  mapping_->decode_into(genes, &decoded);
  return drc_table_->average_drc(decoded);
}

moea::Evaluation RedProblem::evaluate(const std::vector<int>& genes) const {
  return evaluation_of(genes, mapping_->evaluate_metrics(genes));
}

void RedProblem::evaluate_batch(std::span<moea::Individual* const> batch) const {
  const std::span<const ScheduleMetrics> metrics = mapping_->stage_metrics(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i]->eval = evaluation_of(batch[i]->genes, metrics[i]);
  }
}

moea::Evaluation RedProblem::evaluation_of(const std::vector<int>& genes,
                                           const ScheduleMetrics& res) const {
  const double avg_drc = average_drc(genes);
  moea::Evaluation eval;
  eval.objectives = {avg_drc, res.energy};

  // Global QoS spec plus per-seed degradation tolerances (§4.2.1): the new
  // point must stay within tolerance of the seed's QoS metrics and R.
  const QosSpec& spec = mapping_->spec();
  double violation = 0.0;
  if (res.makespan > spec.max_makespan) {
    violation += (res.makespan - spec.max_makespan) / spec.max_makespan;
  }
  if (res.func_rel < spec.min_func_rel) {
    violation += (spec.min_func_rel - res.func_rel) / std::max(spec.min_func_rel, 1e-9);
  }
  // Tolerances are fractions of the BaseD front's QoS bands so they adapt
  // to how spread the front actually is (an absolute tolerance would dwarf a
  // narrow band and produce extras that are never feasible when needed).
  const double s_band = std::max(base_ranges_.makespan_max - base_ranges_.makespan_min, 1e-12);
  const double f_band = std::max(base_ranges_.func_rel_max - base_ranges_.func_rel_min, 1e-12);
  const double s_cap = seed_.makespan + cfg_->tol_makespan_band * s_band;
  if (res.makespan > s_cap) violation += (res.makespan - s_cap) / s_cap;
  const double f_floor = seed_.func_rel - cfg_->tol_func_rel_band * f_band;
  if (res.func_rel < f_floor) violation += (f_floor - res.func_rel) / f_band;
  const double j_cap = seed_.energy * (1.0 + cfg_->tol_energy);
  if (res.energy > j_cap) violation += (res.energy - j_cap) / j_cap;

  eval.violation = violation;
  return eval;
}

DesignTimeDse::DesignTimeDse(const MappingProblem& problem, const recfg::ReconfigModel& reconfig,
                             DseConfig cfg)
    : problem_(&problem), reconfig_(&reconfig), cfg_(cfg) {}

DesignPoint DesignTimeDse::make_point(const sched::Configuration& cfg, bool extra) const {
  const sched::ScheduleResult res = problem_->evaluate_schedule(cfg);
  DesignPoint p;
  p.config = cfg;
  p.energy = res.energy;
  p.makespan = res.makespan;
  p.func_rel = res.func_rel;
  p.extra = extra;
  return p;
}

DesignPoint DesignTimeDse::make_point(const std::vector<int>& genes, bool extra) const {
  const ScheduleMetrics res = problem_->evaluate_metrics(genes);
  DesignPoint p;
  p.config = problem_->decode(genes);
  p.energy = res.energy;
  p.makespan = res.makespan;
  p.func_rel = res.func_rel;
  p.extra = extra;
  return p;
}

DesignDb DesignTimeDse::run_base(util::Rng& rng) const {
  return run_base_resumable(rng, {}).db;
}

StageOutcome DesignTimeDse::run_base_resumable(util::Rng& rng, const BaseControl& control) const {
  CLR_TRACE_SPAN(base_span, trace::Category::Dse, "dse.base",
                 {{"pop", cfg_.base_ga.population}, {"gens", cfg_.base_ga.generations}});
  util::ThreadPool pool(cfg_.threads);

  const std::size_t dim = problem_->num_objectives();
  std::vector<double> ref(dim);
  std::vector<double> scale(dim);
  std::vector<std::vector<int>> seeds;
  if (control.resume != nullptr) {
    // The calibration below consumed RNG draws before the saved GA boundary,
    // so its result travels in the checkpoint; the RNG stream itself is
    // restored inside ga.run from the saved GA state.
    ref = control.resume->ref;
    scale = control.resume->scale;
  } else {
    // Calibrate the Eq. (5) reference point and objective scales from random
    // samples of the space, so the signed hypervolume is well-conditioned.
    // Generate-then-evaluate: all chromosomes are drawn first (sequentially,
    // on the master Rng), then evaluated as one parallel batch.
    std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dim, -std::numeric_limits<double>::infinity());
    {
      CLR_TRACE_SPAN(cal_span, trace::Category::Dse, "dse.calibrate",
                     {{"samples", cfg_.calibration_samples}});
      std::vector<moea::Individual> samples(cfg_.calibration_samples);
      std::vector<moea::Individual*> batch;
      batch.reserve(samples.size());
      for (auto& s : samples) {
        s.genes = problem_->random_genes(rng);
        batch.push_back(&s);
      }
      moea::BatchEvaluator(*problem_, &pool).evaluate(batch);
      for (const auto& s : samples) {
        for (std::size_t k = 0; k < dim; ++k) {
          lo[k] = std::min(lo[k], s.eval.objectives[k]);
          hi[k] = std::max(hi[k], s.eval.objectives[k]);
        }
      }
    }

    // Reference corner: the QoS constraints pin the makespan / reliability
    // dimensions; the energy dimension gets a loose cap above the sampled max.
    const QosSpec& spec = problem_->spec();
    auto loose = [&](std::size_t k) { return hi[k] + 0.05 * (hi[k] - lo[k]) + 1e-9; };
    switch (problem_->mode()) {
      case ObjectiveMode::EnergyQos:
        ref = {loose(0), spec.max_makespan, -spec.min_func_rel};
        break;
      case ObjectiveMode::CspQos:
        ref = {spec.max_makespan, -spec.min_func_rel};
        break;
      case ObjectiveMode::EnergyLifetime:
        // QoS enters through the constraint violation; both objectives get a
        // loose sampled corner.
        ref = {loose(0), loose(1)};
        break;
    }
    for (std::size_t k = 0; k < dim; ++k) {
      const double range = hi[k] - lo[k];
      scale[k] = range > 1e-12 ? 1.0 / range : 1.0;
    }

    if (cfg_.heft_seeding) {
      // The HEFT heuristic maps over the full platform; when the problem
      // restricts the binding domain (e.g. a failed PE is excluded) its seed
      // may not be expressible — skip it rather than fail the exploration.
      try {
        seeds.push_back(problem_->encode(sched::heft_seed(problem_->compiled())));
      } catch (const std::invalid_argument&) {
      }
    }
  }

  moea::HvGa ga(cfg_.base_ga, ref, scale);
  moea::GaRunControl ga_control;
  ga_control.stop = control.stop;
  if (control.on_boundary) {
    ga_control.on_boundary = [&](const moea::GaState& state) {
      BaseProgress progress;
      progress.ref = ref;
      progress.scale = scale;
      progress.ga = state;
      control.on_boundary(progress);
    };
  }
  if (control.resume != nullptr) ga_control.resume = &control.resume->ga;
  const auto result = ga.run(*problem_, rng, seeds, &pool, &ga_control);

  // Thin the raw front to the storage budget, preferring well-spread points
  // (crowding distance keeps the extremes first). Pure recomputation from
  // the archive — on the partial (stopped) path it yields the
  // best-effort-so-far database for the partial report.
  std::vector<moea::Individual> front = result.archive.members();
  if (front.size() > cfg_.max_base_points && cfg_.max_base_points > 0) {
    std::vector<std::size_t> all(front.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    moea::assign_crowding(front, all);
    std::sort(front.begin(), front.end(), [](const moea::Individual& a,
                                             const moea::Individual& b) {
      return a.crowding > b.crowding;
    });
    front.resize(cfg_.max_base_points);
  }

  StageOutcome outcome;
  outcome.complete = result.complete;
  for (const auto& ind : front) {
    outcome.db.add(make_point(ind.genes, /*extra=*/false));
  }
  return outcome;
}

DesignDb DesignTimeDse::run_red(const DesignDb& base, util::Rng& rng) const {
  return run_red_resumable(base, rng, {}).db;
}

StageOutcome DesignTimeDse::run_red_resumable(const DesignDb& base, util::Rng& rng,
                                              const RedControl& control) const {
  if (base.empty()) throw std::invalid_argument("run_red: empty BaseD database");
  CLR_TRACE_SPAN(red_span, trace::Category::Dse, "dse.red", {{"base_points", base.size()}});
  const recfg::DrcTable drc_table(*reconfig_, base.configurations());

  DesignDb red;
  std::size_t start_pos = 0;
  if (control.resume != nullptr) {
    red = control.resume->red;
    start_pos = control.resume->seed_pos;
  } else {
    for (const auto& p : base.points()) {
      DesignPoint copy = p;
      copy.extra = false;
      red.add(std::move(copy));
    }
  }

  // Explore at most max_red_seeds seeds, spread evenly across the front.
  std::vector<std::size_t> seed_idx;
  const std::size_t n = base.size();
  const std::size_t want = std::min(cfg_.max_red_seeds, n);
  for (std::size_t i = 0; i < want; ++i) {
    seed_idx.push_back(i * n / want);
  }

  // One pool for all per-seed runs. The runs share the problem's schedule
  // memo; each RedProblem evaluation (seed-relative violations, average dRC
  // from the flat table) is recomputed from the memoized metrics, which is
  // cheaper than a second memo.
  util::ThreadPool pool(cfg_.threads);

  moea::Nsga2 nsga(cfg_.red_ga);
  for (std::size_t pos = start_pos; pos < seed_idx.size(); ++pos) {
    const std::size_t si = seed_idx[pos];
    CLR_TRACE_SPAN(seed_span, trace::Category::Dse, "dse.red_seed", {{"seed_index", si}});
    const DesignPoint& seed = base.point(si);
    const double seed_avg_drc = drc_table.average_drc(seed.config);

    RedProblem red_problem(*problem_, drc_table, seed, base.ranges(), cfg_);
    // Seed the secondary GA with the seed point, the *other* front points,
    // and mutated copies of the seed. Crossover can then blend a cheap
    // point's task binding with the seed's CLR configuration — CLR/priority
    // changes are free (§3.5), so such blends are exactly the cheap-to-reach
    // QoS-strong targets of Fig. 4b.
    //
    // When resuming into this seed's GA, the seed list (and its mutation
    // draws) is skipped: the GA restores its own population and the RNG
    // stream from the saved boundary, which already reflects those draws.
    const bool resuming_here = control.resume != nullptr && pos == start_pos;
    std::vector<std::vector<int>> seeds;
    if (!resuming_here) {
      const auto seed_genes = problem_->encode(seed.config);
      seeds.push_back(seed_genes);
      for (const auto& other : base.points()) {
        if (seeds.size() + 1 >= cfg_.red_ga.population) break;
        seeds.push_back(problem_->encode(other.config));
      }
      while (seeds.size() < cfg_.red_ga.population * 3 / 4) {
        auto mutated = seed_genes;
        moea::reset_mutation(red_problem, mutated, 0.10, rng);
        seeds.push_back(std::move(mutated));
      }
    }

    moea::GaRunControl ga_control;
    ga_control.stop = control.stop;
    if (control.on_boundary) {
      ga_control.on_boundary = [&](const moea::GaState& state) {
        RedProgress progress;
        progress.seed_pos = pos;
        progress.ga = state;
        progress.red = red;
        control.on_boundary(progress);
      };
    }
    if (resuming_here) ga_control.resume = &control.resume->ga;

    const auto result = nsga.run(red_problem, rng, seeds, &pool, &ga_control);

    if (!result.complete) {
      // Stopped mid-seed: the boundary callback already reported the
      // restartable state; return the extras collected from finished seeds.
      StageOutcome partial;
      partial.db = std::move(red);
      partial.complete = false;
      return partial;
    }

    // Collect candidates that are strictly cheaper to reach than the seed.
    // On a resume that lands exactly on a finished GA (its final boundary),
    // the GA above no-ops and this re-collection is pure deterministic
    // recomputation — DesignDb::add deduplicates, so extras are never
    // double-counted.
    struct Candidate {
      DesignPoint point;
      double avg_drc;
    };
    std::vector<Candidate> candidates;
    for (const auto& ind : result.archive.members()) {
      const double avg_drc = ind.eval.objectives[0];
      if (avg_drc + 1e-12 >= seed_avg_drc) continue;
      candidates.push_back({make_point(ind.genes, /*extra=*/true), avg_drc});
    }

    // Keep the best candidates for each run-time regime:
    //  - cheapest average dRC (serves pRC -> 0, QoS may degrade in-band),
    //  - lowest energy (serves pRC -> 1),
    //  - cheapest among candidates that lose NO QoS vs the seed — the
    //    same-QoS twin F''_Op of Fig. 4b, feasible whenever the seed is.
    auto keep_best = [&](auto cmp, auto filter) {
      std::vector<const Candidate*> pool;
      for (const auto& c : candidates) {
        if (filter(c)) pool.push_back(&c);
      }
      std::sort(pool.begin(), pool.end(), [&](const Candidate* a, const Candidate* b) {
        return cmp(*a, *b);
      });
      std::size_t kept = 0;
      for (const Candidate* c : pool) {
        if (kept >= cfg_.extras_per_seed) break;
        const std::size_t before = red.size();
        red.add(c->point);
        if (red.size() > before) ++kept;
      }
    };
    const auto any = [](const Candidate&) { return true; };
    const auto no_qos_loss = [&](const Candidate& c) {
      return c.point.func_rel >= seed.func_rel - 1e-12 &&
             c.point.makespan <= seed.makespan + 1e-12;
    };
    const auto by_drc = [](const Candidate& a, const Candidate& b) {
      return a.avg_drc < b.avg_drc;
    };
    const auto by_energy = [](const Candidate& a, const Candidate& b) {
      return a.point.energy < b.point.energy;
    };
    keep_best(by_drc, any);
    keep_best(by_energy, any);
    keep_best(by_drc, no_qos_loss);
  }
  StageOutcome outcome;
  outcome.db = std::move(red);
  return outcome;
}

DesignTimeDse::Result DesignTimeDse::run(util::Rng& rng) const {
  Result r;
  r.based = run_base(rng);
  r.red = run_red(r.based, rng);
  return r;
}

}  // namespace clr::dse
