// `explore` workload: the design flow of `clrtool explore` (derive_spec, then
// BaseD and ReD) on a 40-task and a 90-task synthetic app, the flow's RNG
// seeded from the workload seed. Set-up is app construction, the QoS spec and
// the MappingProblem/ReconfigModel; the timed phase is run_base + run_red for
// both apps. It does no runtime, fleet or io work, so a gain aimed at those
// must leave it unchanged.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "dse/design_time.hpp"
#include "experiments/app.hpp"
#include "workloads.hpp"

namespace clr::bench {

exp::FlowParams explore_flow_params() {
  exp::FlowParams params;
  params.dse.base_ga.population = 64;
  params.dse.base_ga.generations = 60;
  params.dse.threads = 1;
  return params;
}

namespace {

struct AppSpec {
  const char* label;
  std::size_t tasks;
};
constexpr AppSpec kApps[] = {{"small", kSmallTasks}, {"large", kLargeTasks}};

/// Everything set-up builds for one application's flow. The RNG continues
/// from derive_spec into run_base and run_red, as in exp::run_design_flow.
struct FlowSetup {
  std::unique_ptr<exp::AppInstance> app;
  util::Rng rng{0};
  dse::QosSpec spec;
  std::unique_ptr<dse::MappingProblem> problem;
  std::unique_ptr<recfg::ReconfigModel> reconfig;
  std::unique_ptr<dse::DesignTimeDse> dse;
};

FlowSetup set_up(const AppSpec& a, std::uint64_t seed) {
  const exp::FlowParams params = explore_flow_params();
  FlowSetup s;
  {
    Span span("experiments.make_app", a.label);
    s.app = exp::make_synthetic_app(a.tasks, kAppSeed);
  }
  s.rng = util::Rng(flow_seed(seed));
  {
    Span span("experiments.derive_spec", a.label);
    s.spec = exp::derive_spec(s.app->context(), params.mode, params.spec_samples,
                              params.makespan_quantile, params.func_rel_quantile, s.rng);
  }
  {
    Span span("dse.problem", a.label);
    s.problem = std::make_unique<dse::MappingProblem>(s.app->context(), s.spec, params.mode);
    s.reconfig = std::make_unique<recfg::ReconfigModel>(s.app->platform(), s.app->impls());
    s.dse = std::make_unique<dse::DesignTimeDse>(*s.problem, *s.reconfig, params.dse);
  }
  return s;
}

/// One app's flow outputs plus the schedule-memo counters behind them.
struct FlowOutput {
  dse::DesignDb based;
  dse::DesignDb red;
  std::uint64_t hits = 0;         ///< schedule-cache hits over the whole flow
  std::uint64_t misses = 0;       ///< = schedule kernel runs
  std::uint64_t red_lookups = 0;  ///< schedule-cache lookups inside run_red
};

FlowOutput run_flow(FlowSetup& s, const char* label) {
  FlowOutput out;
  const auto& cache = s.problem->schedule_cache();
  {
    Span span("dse.base", label);
    out.based = s.dse->run_base(s.rng);
  }
  if (out.based.empty()) throw std::runtime_error("BaseD found no feasible point");
  const std::uint64_t before_red = cache.hits() + cache.misses();
  {
    Span span("dse.red", label);
    out.red = s.dse->run_red(out.based, s.rng);
  }
  out.hits = cache.hits();
  out.misses = cache.misses();
  out.red_lookups = out.hits + out.misses - before_red;
  return out;
}

bool same_metrics(const dse::DesignPoint& a, const dse::DesignPoint& b) {
  return same_bits(a.energy, b.energy) && same_bits(a.makespan, b.makespan) &&
         same_bits(a.func_rel, b.func_rel);
}

/// Output checks: every stored point re-made through make_point(config)
/// matches bit for bit, every metric is finite, and BaseD ⊆ ReD.
void check_flow(const FlowSetup& s, const FlowOutput& out, const char* label,
                std::vector<std::string>& problems) {
  for (const dse::DesignDb* db : {&out.based, &out.red}) {
    for (const dse::DesignPoint& p : db->points()) {
      if (!std::isfinite(p.energy) || !std::isfinite(p.makespan) || !std::isfinite(p.func_rel)) {
        problems.push_back(std::string(label) + ": non-finite stored metric");
        return;
      }
      if (!same_metrics(p, s.dse->make_point(p.config, p.extra))) {
        problems.push_back(std::string(label) + ": stored point differs from make_point");
        return;
      }
    }
  }
  for (const dse::DesignPoint& b : out.based.points()) {
    const auto& red = out.red.points();
    const bool found = std::any_of(red.begin(), red.end(), [&](const dse::DesignPoint& r) {
      return r.config == b.config && same_metrics(r, b);
    });
    if (!found) {
      problems.push_back(std::string(label) + ": BaseD point missing from ReD");
      return;
    }
  }
}

void digest_flow(Digest& d, const FlowSetup& s, const FlowOutput& out) {
  d.value(s.spec.max_makespan);
  d.value(s.spec.min_func_rel);
  for (const dse::DesignDb* db : {&out.based, &out.red}) {
    d.value(db->size());
    for (const dse::DesignPoint& p : db->points()) {
      for (const sched::TaskAssignment& t : p.config.tasks) {
        d.value(t.pe);
        d.value(t.impl_index);
        d.value(t.clr_index);
        d.value(t.priority);
      }
      d.value(p.energy);
      d.value(p.makespan);
      d.value(p.func_rel);
      d.value(p.extra);
    }
  }
}

/// One repetition: fresh set-up (a MappingProblem's schedule memo persists,
/// so reusing one would turn later reps into cache hits), the timed phase,
/// then the output checks.
struct Rep {
  double wall_s = 0.0;
  std::string digest;
  FlowOutput outputs[2];
};

Rep run_rep(std::uint64_t seed, Report& report) {
  FlowSetup setups[2];
  {
    Span span("bench.setup");
    for (std::size_t i = 0; i < 2; ++i) setups[i] = set_up(kApps[i], seed);
  }
  Rep rep;
  std::string errors[2];
  const Clock::time_point start = Clock::now();
  {
    Span span("bench.timed");
    for (std::size_t i = 0; i < 2; ++i) {
      try {
        rep.outputs[i] = run_flow(setups[i], kApps[i].label);
      } catch (const std::exception& e) {
        errors[i] = std::string(kApps[i].label) + ": " + e.what();
      }
    }
  }
  rep.wall_s = seconds_since(start);

  Span span("bench.check");
  Digest digest;
  for (std::size_t i = 0; i < 2; ++i) {
    report.attempted += 1;
    std::vector<std::string> problems;
    if (!errors[i].empty()) {
      problems.push_back(errors[i]);
    } else {
      check_flow(setups[i], rep.outputs[i], kApps[i].label, problems);
    }
    if (!problems.empty()) {
      report.failed += 1;
      for (const std::string& p : problems) report.fail(p);
    }
    digest_flow(digest, setups[i], rep.outputs[i]);
  }
  rep.digest = digest.hex();
  return rep;
}

/// One set-up sample: both apps' set-up.
void set_up_both(std::uint64_t seed) {
  for (const AppSpec& a : kApps) set_up(a, seed);
}

/// Timed reps until `budget_s` is measured (or exactly `fixed` reps when
/// non-zero); every rep must reproduce the first rep's digest. With
/// `setup_samples`, each rep is followed by kSetupSamplesPerRep set-ups.
std::vector<Rep> run_reps(std::uint64_t seed, double budget_s, std::size_t fixed,
                          Report& report, std::vector<double>* setup_samples = nullptr) {
  std::vector<Rep> reps;
  std::vector<double> walls;
  while (fixed != 0 ? reps.size() < fixed : want_more_reps(walls, budget_s, 1)) {
    reps.push_back(run_rep(seed, report));
    walls.push_back(reps.back().wall_s);
    if (reps.back().digest != reps.front().digest) {
      report.fail("explore: outputs differ between repetitions");
    }
    if (setup_samples != nullptr) {
      sample_setups([&] { set_up_both(seed); }, kSetupSamplesPerRep, *setup_samples);
    }
  }
  return reps;
}

void traced_layers(const std::vector<SpanRecord>& spans, const std::vector<Rep>& reps,
                   Report& report) {
  const FlowOutput* last = reps.back().outputs;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string app = kApps[i].label;
    const std::string sfx = "." + app;
    report.layer("experiments.make_app_s" + sfx,
                 median(durations(spans, "experiments.make_app", app)), "s");
    report.layer("experiments.derive_spec_s" + sfx,
                 median(durations(spans, "experiments.derive_spec", app)), "s");
    report.layer("dse.base_s" + sfx, median(durations(spans, "dse.base", app)), "s");
    report.layer("dse.red_s" + sfx, median(durations(spans, "dse.red", app)), "s");
    const FlowOutput& out = last[i];
    const double lookups = static_cast<double>(out.hits + out.misses);
    report.layer("moea.schedule_evals" + sfx, static_cast<double>(out.misses), "count");
    report.layer("moea.schedule_lookups" + sfx, lookups, "count");
    report.layer("moea.schedule_cache_hit_ratio" + sfx,
                 lookups > 0 ? static_cast<double>(out.hits) / lookups : 0.0, "fraction");
    const double extras = static_cast<double>(out.red.size() - out.based.size());
    report.layer("dse.red_points" + sfx, static_cast<double>(out.red.size()), "count");
    report.layer("dse.red_lookups" + sfx, static_cast<double>(out.red_lookups), "count");
    report.layer("dse.red_yield" + sfx,
                 out.red_lookups > 0 ? extras / static_cast<double>(out.red_lookups) : 0.0,
                 "fraction");
  }
}

}  // namespace

Report run_explore(const RunOptions& opt) {
  Report report;
  report.workload = "explore";

  if (!opt.trace) {
    const std::vector<Rep> reps =
        run_reps(opt.seed, opt.seconds, 0, report, &report.setup_samples);
    const std::size_t have = std::min(kSetupSamples, report.setup_samples.size());
    sample_setups([&] { set_up_both(opt.seed); }, kSetupSamples - have, report.setup_samples);
    for (const Rep& r : reps) report.wall_samples.push_back(r.wall_s);
    report.reps = reps.size();
    report.digest = reps.front().digest;
    report.peak_rss_mb = peak_rss_mb();
    return report;
  }

  // Traced run: an untraced pass for the overhead baseline, then the same
  // number of reps with bench spans on.
  const std::vector<Rep> plain =
      run_reps(opt.seed, opt.seconds / 2, 0, report, &report.setup_samples);
  for (const Rep& r : plain) report.wall_samples.push_back(r.wall_s);
  report.reps = plain.size();
  report.digest = plain.front().digest;

  start_tracing();
  const std::vector<Rep> traced = run_reps(opt.seed, 0.0, plain.size(), report);
  std::vector<double> traced_setups;  // for the experiments.* spans only
  sample_setups([&] { set_up_both(opt.seed); }, kSetupSamples, traced_setups);
  const std::vector<SpanRecord> spans = stop_tracing();
  if (!opt.trace_out.empty()) write_chrome_trace(opt.trace_out);
  if (traced.front().digest != report.digest) {
    report.fail("explore: traced and untraced outputs differ");
  }

  traced_layers(spans, traced, report);
  for (const auto& [name, share] : summarize_trace(spans, report)) {
    report.layer("share." + name, share, "fraction");
  }
  return report;
}

}  // namespace clr::bench
