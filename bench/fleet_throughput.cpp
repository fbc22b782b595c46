// Fleet pipeline throughput benchmark + CI regression gate.
//
// Measures the sharded device-simulation service (src/fleet, DESIGN.md §5.13)
// in devices/second over a sampled design database, and gates two properties:
//
//   - CONTRACT (deterministic, never retried): every per-block sum and the
//     fleet summary are bit-identical across shard/thread configurations
//     (including an oversubscribed one), and at a fixed shard count the
//     per-shard folds are bit-identical at any thread count.
//   - PERF (up to three measurement attempts with a cool-down, like
//     bench/schedule_kernel): the pipeline-at-one-worker rate must stay
//     within `overhead_ratio_max` of a bare sequential simulate_device loop
//     measured in the same process (machine-transferable, like the
//     schedule-kernel normalized ratio), and the parallel rate must clear the
//     conservative absolute `devices_per_second_floor`.
//
// Emits machine-readable BENCH_fleet.json to $CLR_REPORT_DIR (or the working
// directory).
//
// Usage: fleet_throughput [--check-baseline <path>] [devices] [tasks] [seed]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "dse/mapping_problem.hpp"
#include "fleet/fleet.hpp"
#include "io/snapshot.hpp"
#include "runtime/drc_matrix.hpp"

namespace {

using namespace clr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("fleet_throughput: cannot read " + path);
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
  const std::uint64_t devices =
      positional.size() > 0 ? static_cast<std::uint64_t>(std::atoll(positional[0].c_str()))
                            : (bench::smoke() ? 8000 : 50000);
  const std::size_t tasks = positional.size() > 1
                                ? static_cast<std::size_t>(std::atol(positional[1].c_str()))
                                : (bench::smoke() ? 10 : 20);
  const auto seed = positional.size() > 2
                        ? static_cast<std::uint64_t>(std::atoll(positional[2].c_str()))
                        : 0xF1EE7ULL;
  const std::size_t num_points = bench::smoke() ? 96 : 256;

  // Workload: a database of sampled (decoded + evaluated) configurations —
  // the fleet reads the database and its DrcMatrix, never how the points were
  // found, so sampling replaces the full DSE (same trick as bench/snapshot_io).
  const auto app = exp::make_synthetic_app(tasks, seed);
  const dse::QosSpec loose{1e18, 0.0};
  dse::MappingProblem problem(app->context(), loose, dse::ObjectiveMode::EnergyQos);
  util::Rng rng(seed ^ 0xBEEFULL);
  dse::DesignDb db;
  db.reserve(num_points);
  while (db.size() < num_points) {
    const auto cfg = problem.decode(problem.random_genes(rng));
    const auto res = problem.evaluate_schedule(cfg);
    dse::DesignPoint p;
    p.config = cfg;
    p.energy = res.energy;
    p.makespan = res.makespan;
    p.func_rel = res.func_rel;
    db.add(std::move(p));
  }
  recfg::ReconfigModel reconfig(app->platform(), app->impls());
  const rt::DrcMatrix drc(db, reconfig);

  fleet::FleetConfig config;
  config.devices = devices;
  config.seed = seed ^ 0xF1EE7ULL;
  config.block_size = 512;
  config.params.sim.total_cycles = bench::smoke() ? 2000.0 : 10000.0;
  config.params.faults.transient_rate = 2e-5;
  config.params.faults.validate();
  config.params.fault_profiles = flt::profiles_from_platform(app->platform());
  config.ranges = exp::db_qos_ranges(db);
  const rel::ClrSpace* space = &app->clr_space();
  const std::size_t auto_jobs = util::resolve_threads(bench::jobs());

  // --- Contract gate (deterministic, never retried): every aggregate is
  // bit-identical across shard/thread configurations, including an
  // oversubscribed one (more shards and workers than cores).
  struct Combo {
    std::size_t shards, jobs;
  };
  const std::vector<Combo> combos{
      {1, 1}, {7, 1}, {7, auto_jobs + 1}, {4 * auto_jobs + 4, 2 * auto_jobs}};
  std::vector<fleet::FleetResult> contract_runs;
  for (const Combo& c : combos) {
    fleet::FleetConfig cfg = config;
    cfg.shards = c.shards;
    cfg.jobs = c.jobs;
    contract_runs.push_back(fleet::run_fleet(db, drc, space, cfg));
  }
  bool bit_identical = true;
  for (std::size_t i = 1; i < contract_runs.size(); ++i) {
    // Every per-block sum and the global fold are bit-identical at ANY
    // shard/thread combination.
    if (contract_runs[i].progress.blocks != contract_runs[0].progress.blocks ||
        contract_runs[i].summary.totals != contract_runs[0].summary.totals) {
      bit_identical = false;
    }
  }
  // At a fixed shard count the per-shard aggregates are also bit-identical
  // at any thread count (combos 1 and 2 both run 7 shards).
  {
    const auto& a = contract_runs[1].shards;
    const auto& b = contract_runs[2].shards;
    if (a.size() != b.size()) bit_identical = false;
    for (std::size_t i = 0; bit_identical && i < a.size(); ++i) {
      if (a[i].totals != b[i].totals) bit_identical = false;
    }
  }

  // --- Sequential reference: a bare simulate_device loop (no queues, no
  // threads) over a prefix of the device range, measured in-process so the
  // overhead ratio transfers across machine speeds.
  const std::uint64_t ref_devices = std::min<std::uint64_t>(devices, 2000);
  const rt::QosProcess qos(config.ranges, config.params.qos);
  const rt::RuntimeSimulator sim(config.params.sim);
  const auto measure_sequential = [&] {
    const auto start = Clock::now();
    fleet::BlockSum sink;
    for (std::uint64_t d = 0; d < ref_devices; ++d) {
      sink.add(fleet::simulate_device(db, drc, qos, sim, config.params, space, d, config.seed));
    }
    if (sink.devices != ref_devices) std::abort();
    return static_cast<double>(ref_devices) / seconds_since(start);
  };

  const int rounds = 3;
  const auto measure = [&](std::size_t jobs) {
    std::vector<double> rates;
    for (int round = 0; round < rounds; ++round) {
      fleet::FleetConfig cfg = config;
      cfg.jobs = jobs;
      const fleet::FleetResult result = fleet::run_fleet(db, drc, space, cfg);
      rates.push_back(result.devices_per_second);
    }
    return median_of(rates);
  };

  double overhead_ratio_max = 1.6;
  double rate_floor = 300.0;
  if (!baseline_path.empty()) {
    const io::Json baseline = io::Json::parse(read_text_file(baseline_path));
    if (const io::Json* f = baseline.find("overhead_ratio_max")) overhead_ratio_max = f->as_number();
    // Floor = baseline rate minus the allowed regression (default 20%).
    if (const io::Json* f = baseline.find("devices_per_second_baseline")) {
      double max_regression = 0.2;
      if (const io::Json* m = baseline.find("max_regression")) max_regression = m->as_number();
      rate_floor = f->as_number() * (1.0 - max_regression);
    }
  }

  double sequential_rate = 0.0, pipeline_rate_j1 = 0.0, parallel_rate = 0.0, overhead_ratio = 0.0;
  const auto measure_all = [&] {
    sequential_rate = measure_sequential();
    pipeline_rate_j1 = measure(1);
    parallel_rate = measure(0);
    overhead_ratio = pipeline_rate_j1 > 0.0 ? sequential_rate / pipeline_rate_j1 : 1e18;
  };
  measure_all();
  for (int attempt = 1; attempt < 3 && !baseline_path.empty(); ++attempt) {
    if (overhead_ratio <= overhead_ratio_max && parallel_rate >= rate_floor) break;
    std::printf("note: perf gate missed (attempt %d/3), re-measuring after cool-down\n", attempt);
    std::this_thread::sleep_for(std::chrono::seconds(3));
    measure_all();
  }

  std::printf("fleet throughput: %llu devices, %zu tasks, %zu points, %.0f cycles/device, "
              "block %llu\n",
              static_cast<unsigned long long>(devices), tasks, db.size(),
              config.params.sim.total_cycles,
              static_cast<unsigned long long>(config.block_size));
  std::printf("  sequential reference: %10.0f devices/s (%llu-device bare loop)\n",
              sequential_rate, static_cast<unsigned long long>(ref_devices));
  std::printf("  pipeline, 1 worker:   %10.0f devices/s (overhead ratio %.3f)\n",
              pipeline_rate_j1, overhead_ratio);
  std::printf("  pipeline, %2zu workers: %10.0f devices/s (%.2fx vs 1 worker)\n", auto_jobs,
              parallel_rate, pipeline_rate_j1 > 0.0 ? parallel_rate / pipeline_rate_j1 : 0.0);
  std::printf("  bit-identical aggregates across %zu shard/thread configs: %s\n", combos.size(),
              bit_identical ? "yes" : "NO (BUG)");

  io::Json report(io::JsonObject{
      {"workload",
       io::Json(io::JsonObject{
           {"devices", io::Json(devices)},
           {"tasks", io::Json(static_cast<double>(tasks))},
           {"seed", io::Json(static_cast<double>(seed))},
           {"num_points", io::Json(static_cast<double>(db.size()))},
           {"cycles", io::Json(config.params.sim.total_cycles)},
           {"block_size", io::Json(config.block_size)},
           {"fault_rate", io::Json(config.params.faults.transient_rate)},
           {"smoke", io::Json(bench::smoke())}})},
      {"sequential_devices_per_second", io::Json(sequential_rate)},
      {"pipeline_1worker_devices_per_second", io::Json(pipeline_rate_j1)},
      {"devices_per_second", io::Json(parallel_rate)},
      {"jobs", io::Json(static_cast<double>(auto_jobs))},
      {"overhead_ratio", io::Json(overhead_ratio)},
      {"bit_identical", io::Json(bit_identical)},
  });
  const char* report_dir = std::getenv("CLR_REPORT_DIR");
  const std::string out_path =
      (report_dir != nullptr && report_dir[0] != '\0' ? std::string(report_dir) + "/"
                                                      : std::string()) +
      "BENCH_fleet.json";
  util::write_file(out_path, report.dump(2) + "\n");
  std::printf("[report] %s\n", out_path.c_str());

  bool ok = bit_identical;
  if (!bit_identical) {
    std::printf("FAIL: fleet aggregates diverge across shard/thread configurations\n");
  }
  if (!baseline_path.empty()) {
    std::printf("baseline check: overhead ratio %.3f vs %.3f max, %.0f devices/s vs %.0f floor\n",
                overhead_ratio, overhead_ratio_max, parallel_rate, rate_floor);
    if (overhead_ratio > overhead_ratio_max) {
      std::printf("FAIL: pipeline overhead ratio %.3f above the %.3f acceptance max\n",
                  overhead_ratio, overhead_ratio_max);
      ok = false;
    }
    if (parallel_rate < rate_floor) {
      std::printf("FAIL: fleet throughput %.0f devices/s below the %.0f floor\n", parallel_rate,
                  rate_floor);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
