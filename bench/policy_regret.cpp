// Policy-regret benchmark + CI regression gate (ISSUE 10, DESIGN.md §5.14).
//
// Measures how far each adaptation policy ends from the best policy of the
// round on one sampled design database under a drifting (AR(1)) QoS process
// with fault injection, and how much reconfiguration latency the speculative
// prefetcher hides. Three gates:
//
//   - CONTRACT (deterministic, never retried): the full policy × prefetch
//     grid aggregates bit-identically at jobs=1 and jobs=8 — thread count
//     must never leak into a single summary bit.
//   - REGRET (perf-style, up to three attempts with a cool-down): the
//     offline-planned MDP policy's regret — its QoS-unavailable fraction
//     minus the best policy's — must not exceed AuRA's regret by more than
//     `regret_margin_max` from the baseline file. The tabular plan has the
//     whole transition model at its disposal; trailing the online learner
//     would mean the offline solve is mis-modelled.
//   - STALL (perf-style, same retry loop): prefetching on the MDP cell must
//     hide at least `stall_reduction_min` of the stalled reconfiguration
//     time (1 - stall_on/stall_off; the predictable AR(1) drift makes the
//     one-step prediction frequently right).
//
// Emits machine-readable BENCH_policy.json to $CLR_REPORT_DIR (or the
// working directory).
//
// Usage: policy_regret [--check-baseline <path>] [tasks] [seed]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dse/mapping_problem.hpp"
#include "io/json.hpp"

namespace {

using namespace clr;

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("policy_regret: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  const std::size_t tasks = positional.size() > 0
                                ? static_cast<std::size_t>(std::atol(positional[0].c_str()))
                                : (bench::smoke() ? 8 : 12);
  const auto seed = positional.size() > 1
                        ? static_cast<std::uint64_t>(std::atoll(positional[1].c_str()))
                        : 0x9E67ULL;
  const std::size_t num_points = bench::smoke() ? 12 : 16;

  // Workloads: sampled databases (the policies read the database and its
  // DrcMatrix, never how the points were found — same trick as
  // bench/fleet_throughput), under a strongly drifting QoS requirement.
  struct Workload {
    std::unique_ptr<exp::AppInstance> app;
    dse::DesignDb db;
    rt::DrcMatrix drc{0, {}};
    dse::MetricRanges ranges;
    dse::MetricRanges raw;
  };
  const auto build_workload = [&](std::size_t n_tasks, std::size_t n_points,
                                  std::uint64_t wl_seed) {
    Workload w;
    w.app = exp::make_synthetic_app(n_tasks, wl_seed);
    const dse::QosSpec loose{1e18, 0.0};
    dse::MappingProblem problem(w.app->context(), loose, dse::ObjectiveMode::EnergyQos);
    util::Rng rng(wl_seed ^ 0xBEEFULL);
    w.db.reserve(n_points);
    while (w.db.size() < n_points) {
      const auto cfg = problem.decode(problem.random_genes(rng));
      const auto res = problem.evaluate_schedule(cfg);
      dse::DesignPoint p;
      p.config = cfg;
      p.energy = res.energy;
      p.makespan = res.makespan;
      p.func_rel = res.func_rel;
      w.db.add(std::move(p));
    }
    recfg::ReconfigModel reconfig(w.app->platform(), w.app->impls());
    w.drc = rt::DrcMatrix(w.db, reconfig);
    w.raw = w.db.ranges();
    w.ranges = exp::db_qos_ranges(w.db);
    return w;
  };
  const Workload regret_wl = build_workload(tasks, num_points, seed);
  // The drift regime measures the prefetcher's hidden-time mechanics; a fixed
  // small workload keeps it scale-independent (at paper scale the big grid's
  // database drifts into a stay-put regime where nothing is ever staged).
  const Workload drift_wl = build_workload(8, 12, 0x9E67ULL);
  const auto& app = regret_wl.app;
  const auto& db = regret_wl.db;
  const auto& drc = regret_wl.drc;
  const auto& ranges = regret_wl.ranges;
  const auto& r = regret_wl.raw;

  // Regime A (regret + determinism contract): fast, noisy requirement churn —
  // the paper's event cadence, where frequent re-decisions separate the
  // policies' planning quality.
  exp::RuntimeEvalParams base;
  base.p_rc = 0.4;
  base.sim.total_cycles = bench::sim_cycles();
  base.qos.ar1_phi = 0.9;  // drifting requirement: the regime the MDP kernel models
  base.faults.transient_rate = 2e-5;
  base.faults.validate();
  base.fault_profiles = flt::profiles_from_platform(app->platform());
  base.mdp.makespan_bins = 5;
  base.mdp.func_rel_bins = 5;

  const std::vector<exp::PolicyKind> kinds{exp::PolicyKind::Baseline, exp::PolicyKind::Ura,
                                           exp::PolicyKind::Aura, exp::PolicyKind::Mdp};
  const auto kind_name = [](exp::PolicyKind kind) {
    switch (kind) {
      case exp::PolicyKind::Baseline: return "baseline";
      case exp::PolicyKind::Ura: return "ura";
      case exp::PolicyKind::Aura: return "aura";
      case exp::PolicyKind::Mdp: return "mdp";
    }
    return "?";
  };

  const auto run_grid = [&](std::size_t jobs) {
    exp::RunnerConfig config;
    config.replications = bench::replications();
    config.jobs = jobs;
    exp::Runner runner(config);
    for (const exp::PolicyKind kind : kinds) {
      for (const bool prefetch : {false, true}) {
        exp::RunnerCell cell;
        cell.db = &db;
        cell.drc = &drc;
        cell.ranges = ranges;
        cell.params = base;
        cell.params.kind = kind;
        cell.params.prefetch = prefetch;
        cell.seed = seed ^ 0x5157ULL;
        cell.label = std::string(kind_name(kind)) + (prefetch ? "+prefetch" : "");
        runner.add_cell(std::move(cell));
      }
    }
    return runner.run();
  };

  // Regime B (stall gate): slow, predictable drift with sparse events — small
  // innovations make the one-step AR(1) prediction frequently right, and the
  // long event gap gives staged loads real time on the single-ported ICAP.
  // The prefetcher only earns hidden time between events, so gap and horizon
  // set the ceiling on what this gate can observe at all.
  exp::RuntimeEvalParams drift = base;
  drift.sim.total_cycles = std::max(bench::sim_cycles(), 1e5);
  drift.qos.ar1_phi = 0.95;
  drift.qos.makespan_sd_frac = 0.05;
  drift.qos.func_rel_sd_frac = 0.05;
  drift.qos.mean_event_gap = 500.0;
  const auto run_drift_pair = [&](std::size_t jobs) {
    exp::RunnerConfig config;
    config.replications = bench::replications();
    config.jobs = jobs;
    exp::Runner runner(config);
    for (const bool prefetch : {false, true}) {
      exp::RunnerCell cell;
      cell.db = &drift_wl.db;
      cell.drc = &drift_wl.drc;
      cell.ranges = drift_wl.ranges;
      cell.params = drift;
      cell.params.kind = exp::PolicyKind::Mdp;
      cell.params.prefetch = prefetch;
      cell.seed = seed ^ 0xD21F7ULL;
      cell.label = std::string("drift mdp") + (prefetch ? "+prefetch" : "");
      runner.add_cell(std::move(cell));
    }
    return runner.run();
  };

  // --- Contract gate (deterministic, never retried): thread count must not
  // move a single bit of any replicated summary, in either regime.
  const std::vector<exp::CellResult> grid = run_grid(1);
  const std::vector<exp::CellResult> grid_j8 = run_grid(8);
  const std::vector<exp::CellResult> pair = run_drift_pair(1);
  const std::vector<exp::CellResult> pair_j8 = run_drift_pair(8);
  bool bit_identical = grid.size() == grid_j8.size() && pair.size() == pair_j8.size();
  for (std::size_t i = 0; bit_identical && i < grid.size(); ++i) {
    bit_identical = grid[i].label == grid_j8[i].label && grid[i].stats == grid_j8[i].stats;
  }
  for (std::size_t i = 0; bit_identical && i < pair.size(); ++i) {
    bit_identical = pair[i].label == pair_j8[i].label && pair[i].stats == pair_j8[i].stats;
  }

  // --- Regret: QoS-unavailable fraction (violation + downtime + stalled
  // reconfiguration time over the horizon) of the prefetch-off cells, minus
  // the best policy of the round.
  const auto cell_of = [&](exp::PolicyKind kind, bool prefetch) -> const exp::CellResult& {
    const std::string label = std::string(kind_name(kind)) + (prefetch ? "+prefetch" : "");
    for (const auto& cell : grid) {
      if (cell.label == label) return cell;
    }
    std::abort();
  };
  // The score mirrors the weighted objective every policy is asked to
  // optimize (p_rc trades energy against reconfiguration cost, violations
  // dominate): violation fraction + p_rc·normalized energy +
  // (1-p_rc)·normalized per-event reconfiguration cost.
  const double drc_hi = std::max(drc.max_drc(), 1e-12);
  const auto cost_of = [&](const exp::CellResult& cell) {
    const double violation_frac = cell.stats.qos_violation_time.mean / base.sim.total_cycles;
    const double energy_n =
        util::min_max_norm(cell.stats.avg_energy.mean, r.energy_min, r.energy_max);
    const double reconfig_n = cell.stats.avg_reconfig_cost.mean / drc_hi;
    return violation_frac + base.p_rc * energy_n + (1.0 - base.p_rc) * reconfig_n;
  };

  double regret_margin_max = 0.002;
  double stall_reduction_min = 0.10;
  if (!baseline_path.empty()) {
    const io::Json baseline = io::Json::parse(read_text_file(baseline_path));
    if (const io::Json* f = baseline.find("regret_margin_max")) regret_margin_max = f->as_number();
    if (const io::Json* f = baseline.find("stall_reduction_min"))
      stall_reduction_min = f->as_number();
  }

  std::vector<double> costs;
  double best_cost = 0.0, mdp_regret = 0.0, aura_regret = 0.0, stall_reduction = 0.0;
  double stall_off = 0.0, stall_on = 0.0;
  const auto evaluate_gates = [&] {
    costs.clear();
    for (const exp::PolicyKind kind : kinds) costs.push_back(cost_of(cell_of(kind, false)));
    best_cost = *std::min_element(costs.begin(), costs.end());
    mdp_regret = cost_of(cell_of(exp::PolicyKind::Mdp, false)) - best_cost;
    aura_regret = cost_of(cell_of(exp::PolicyKind::Aura, false)) - best_cost;
    stall_off = pair[0].stats.reconfig_stall_time.mean;
    stall_on = pair[1].stats.reconfig_stall_time.mean;
    stall_reduction = stall_off > 0.0 ? 1.0 - stall_on / stall_off : 0.0;
  };
  evaluate_gates();
  // The measurements are deterministic, but the retry protocol matches the
  // other perf gates (bench/schedule_kernel, bench/fleet_throughput): CI
  // re-measures perf-style gates up to three times with a cool-down, and
  // never retries the determinism contract.
  for (int attempt = 1; attempt < 3 && !baseline_path.empty(); ++attempt) {
    if (mdp_regret <= aura_regret + regret_margin_max && stall_reduction >= stall_reduction_min)
      break;
    std::printf("note: perf gate missed (attempt %d/3), re-measuring after cool-down\n", attempt);
    std::this_thread::sleep_for(std::chrono::seconds(3));
    evaluate_gates();
  }

  std::printf("policy regret: %zu tasks, %zu points, %.0f cycles, %zu replications, "
              "ar1_phi %.2f\n",
              tasks, db.size(), base.sim.total_cycles, grid.front().stats.replications,
              base.qos.ar1_phi);
  io::JsonObject policies;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto& cell = cell_of(kinds[i], false);
    std::printf("  %-8s weighted objective %.6f (regret %+.6f), violation %.1f, "
                "stall %.1f\n",
                kind_name(kinds[i]), costs[i], costs[i] - best_cost,
                cell.stats.qos_violation_time.mean, cell.stats.reconfig_stall_time.mean);
    policies.emplace_back(kind_name(kinds[i]),
                          io::Json(io::JsonObject{
                              {"weighted_objective", io::Json(costs[i])},
                              {"regret", io::Json(costs[i] - best_cost)},
                              {"violation_time", io::Json(cell.stats.qos_violation_time.mean)},
                              {"stall_time", io::Json(cell.stats.reconfig_stall_time.mean)},
                          }));
  }
  const auto& mdp_pf = pair[1].stats;
  std::printf("  drift regime, prefetch on mdp: stall %.1f -> %.1f (reduction %.3f), "
              "hidden %.1f, hits %.1f, misses %.1f\n",
              stall_off, stall_on, stall_reduction, mdp_pf.prefetch_hidden_time.mean,
              mdp_pf.prefetch_hits.mean, mdp_pf.prefetch_misses.mean);
  std::printf("  bit-identical grid at jobs 1 vs 8: %s\n", bit_identical ? "yes" : "NO (BUG)");

  io::Json report(io::JsonObject{
      {"workload", io::Json(io::JsonObject{
                       {"tasks", io::Json(static_cast<double>(tasks))},
                       {"seed", io::Json(static_cast<double>(seed))},
                       {"num_points", io::Json(static_cast<double>(db.size()))},
                       {"cycles", io::Json(base.sim.total_cycles)},
                       {"replications",
                        io::Json(static_cast<double>(grid.front().stats.replications))},
                       {"ar1_phi", io::Json(base.qos.ar1_phi)},
                       {"smoke", io::Json(bench::smoke())}})},
      {"policies", io::Json(std::move(policies))},
      {"mdp_regret", io::Json(mdp_regret)},
      {"aura_regret", io::Json(aura_regret)},
      {"stall_reduction", io::Json(stall_reduction)},
      {"prefetch_hidden_time", io::Json(mdp_pf.prefetch_hidden_time.mean)},
      {"bit_identical", io::Json(bit_identical)},
  });
  const char* report_dir = std::getenv("CLR_REPORT_DIR");
  const std::string out_path =
      (report_dir != nullptr && report_dir[0] != '\0' ? std::string(report_dir) + "/"
                                                      : std::string()) +
      "BENCH_policy.json";
  util::write_file(out_path, report.dump(2) + "\n");
  std::printf("[report] %s\n", out_path.c_str());

  bool ok = bit_identical;
  if (!bit_identical) {
    std::printf("FAIL: policy grid aggregates diverge across job counts\n");
  }
  if (!baseline_path.empty()) {
    std::printf("baseline check: mdp regret %.6f vs aura %.6f + %.6f margin, "
                "stall reduction %.3f vs %.3f min\n",
                mdp_regret, aura_regret, regret_margin_max, stall_reduction, stall_reduction_min);
    if (mdp_regret > aura_regret + regret_margin_max) {
      std::printf("FAIL: MDP regret %.6f above AuRA regret %.6f + margin %.6f\n", mdp_regret,
                  aura_regret, regret_margin_max);
      ok = false;
    }
    if (stall_reduction < stall_reduction_min) {
      std::printf("FAIL: prefetch stall reduction %.3f below the %.3f floor\n", stall_reduction,
                  stall_reduction_min);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
