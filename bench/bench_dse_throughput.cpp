// Throughput of the design-time DSE under the parallel evaluation
// subsystem: wall-clock, evals/sec (actual schedule-kernel invocations) and
// schedule-cache hit rate for DesignTimeDse::run at 1 / 2 / N threads.
//
// The front produced at every thread count must be identical (the
// generate-then-evaluate contract keeps all RNG draws on the sequential
// master Rng), so the bench cross-checks all fronts against the first run
// before reporting speedups, and exits 1 when any differs.
//
// Usage: bench_dse_throughput [tasks] [seed]   (defaults: 20 tasks, seed 1)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"

namespace {

using namespace clr;

struct RunReport {
  std::size_t threads = 0;
  double seconds = 0.0;
  std::uint64_t schedule_runs = 0;  ///< actual scheduler invocations (misses)
  std::uint64_t lookups = 0;        ///< total evaluation requests
  double hit_rate = 0.0;
  dse::DesignTimeDse::Result result;
};

RunReport run_once(const exp::AppInstance& app, const dse::QosSpec& spec,
                   const dse::DseConfig& cfg, std::uint64_t seed) {
  // Fresh problem per run so the schedule cache and counters start cold.
  dse::MappingProblem problem(app.context(), spec, dse::ObjectiveMode::EnergyQos);
  recfg::ReconfigModel reconfig(app.platform(), app.impls());
  dse::DesignTimeDse flow(problem, reconfig, cfg);

  RunReport report;
  report.threads = util::resolve_threads(cfg.threads);
  util::Rng rng(seed);
  const auto t0 = std::chrono::steady_clock::now();
  report.result = flow.run(rng);
  const auto t1 = std::chrono::steady_clock::now();
  report.seconds = std::chrono::duration<double>(t1 - t0).count();
  report.schedule_runs = problem.schedule_runs();
  const auto& cache = problem.schedule_cache();
  report.lookups = cache.hits() + cache.misses();
  report.hit_rate = cache.hit_rate();
  return report;
}

bool same_front(const dse::DesignDb& a, const dse::DesignDb& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& pa = a.point(i);
    const auto& pb = b.point(i);
    if (!(pa.config == pb.config) || pa.energy != pb.energy || pa.makespan != pb.makespan ||
        pa.func_rel != pb.func_rel || pa.extra != pb.extra) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clr;
  const std::size_t tasks = argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 20;
  const auto seed = argc > 2 ? static_cast<std::uint64_t>(std::atol(argv[2])) : 1;

  const auto app = exp::make_synthetic_app(tasks, seed);
  util::Rng spec_rng(exp::derive_seed(0x7B5Eu, tasks));
  const auto spec =
      exp::derive_spec(app->context(), dse::ObjectiveMode::EnergyQos, 64, 0.85, 0.10, spec_rng);

  dse::DseConfig cfg = bench::bench_dse_config(tasks);
  const std::size_t hw = util::resolve_threads(0);
  std::printf("DSE evaluation throughput: %zu tasks, seed %llu, hardware threads %zu\n", tasks,
              static_cast<unsigned long long>(seed), hw);
  std::printf("BaseD %zux%zu + ReD %zux%zu over %zu seeds\n\n", cfg.base_ga.population,
              cfg.base_ga.generations, cfg.red_ga.population, cfg.red_ga.generations,
              cfg.max_red_seeds);

  std::vector<std::size_t> thread_counts{1, 2};
  if (hw > 2) thread_counts.push_back(hw);

  std::vector<RunReport> reports;
  for (std::size_t t : thread_counts) {
    cfg.threads = t;
    reports.push_back(run_once(*app, spec, cfg, seed ^ 0xD5EULL));
  }
  const RunReport& base = reports.front();  // 1 thread

  util::TextTable table("DesignTimeDse::run throughput");
  table.set_header({"threads", "wall [s]", "scheduler runs", "evals/sec", "cache hit rate",
                    "speedup vs 1T"});
  for (const auto& r : reports) {
    table.add_row({std::to_string(r.threads), util::TextTable::fmt(r.seconds, 3),
                   std::to_string(r.schedule_runs),
                   util::TextTable::fmt(static_cast<double>(r.schedule_runs) / r.seconds, 0),
                   util::TextTable::fmt(100.0 * r.hit_rate, 1) + " %",
                   util::TextTable::fmt(base.seconds / r.seconds, 2) + "x"});
  }
  std::printf("%s", table.to_string().c_str());

  bool identical = true;
  for (const auto& r : reports) {
    identical &= same_front(base.result.based, r.result.based) &&
                 same_front(base.result.red, r.result.red);
  }
  std::printf("fronts identical across thread counts: %s\n", identical ? "yes" : "NO (BUG)");
  std::printf("memoization: %llu of %llu evaluation requests served from cache\n",
              static_cast<unsigned long long>(base.lookups - base.schedule_runs),
              static_cast<unsigned long long>(base.lookups));

  // Machine-readable companion to BENCH_schedule.json (written when
  // CLR_REPORT_DIR is set; see EXPERIMENTS.md).
  io::JsonArray runs;
  for (const auto& r : reports) {
    runs.push_back(io::Json(io::JsonObject{
        {"threads", io::Json(static_cast<std::uint64_t>(r.threads))},
        {"wall_seconds", io::Json(r.seconds)},
        {"schedule_runs", io::Json(r.schedule_runs)},
        {"evals_per_sec", io::Json(static_cast<double>(r.schedule_runs) / r.seconds)},
        {"cache_hit_rate", io::Json(r.hit_rate)},
        {"speedup_vs_1t", io::Json(base.seconds / r.seconds)},
    }));
  }
  bench::write_report("BENCH_dse_throughput",
                      io::Json(io::JsonObject{
                          {"tasks", io::Json(static_cast<std::uint64_t>(tasks))},
                          {"seed", io::Json(seed)},
                          {"fronts_identical", io::Json(identical)},
                          {"runs", io::Json(std::move(runs))},
                      }));
  return identical ? 0 : 1;
}
