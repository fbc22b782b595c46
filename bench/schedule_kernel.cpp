// Schedule-evaluation kernel micro-bench (ISSUE 5+6 / DESIGN.md §5.9-5.10):
// single-thread throughput of the flat CompiledGraph kernel and the batched
// SoA kernel vs the pointer-based ReferenceScheduler on the Fig. 5 workload
// (the kernels' differential oracle, tests/schedule/reference_scheduler.*),
// plus a heap instrumentation that counts allocations per evaluation through
// a replaced global operator new (both kernel contracts are 0 on warm
// scratch, including the batched transpose staging).
//
// Emits machine-readable BENCH_schedule.json to $CLR_REPORT_DIR (or the
// working directory when unset):
//   reference / kernel / batched ns_per_eval, speedup     — this machine
//   normalized_ratio[_batched] = *_ns / reference_ns      — machine-free
//   *.allocs_per_eval, bit_identical, batched_bit_identical — contracts
//   batched.lanes / batched.simd_backend                  — provenance
//
// CI regression gate: `schedule_kernel --check-baseline <baseline.json>`
// re-measures and fails (exit 1) when the scalar or batched normalized
// ratio regresses more than 20% over the checked-in baseline (the ratio
// divides out absolute machine speed; see EXPERIMENTS.md), when any
// allocation leaks into either steady-state loop, when either kernel
// diverges from the reference oracle or the batched path diverges from the
// scalar kernel by a single bit, when the single-thread scalar speedup
// drops below the baseline's speedup_floor, or when the batched path falls
// under its batched_speedup_floor vs the scalar kernel at batch >= 8. The
// floors live in the baseline file next to the workload they were
// calibrated for (the smoke workload CI runs); perf gates get up to three
// measurement attempts before failing, contract gates never retry.
//
// Usage: schedule_kernel [--check-baseline <path>] [tasks] [seed]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <span>

#include "bench_common.hpp"
#include "common/simd.hpp"
#include "dse/mapping_problem.hpp"
#include "io/json.hpp"
#include "schedule/batch.hpp"
#include "schedule/compiled_graph.hpp"

#include "reference_scheduler.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace clr;

/// Per-side tallies across all measurement rounds.
struct Measurement {
  double ns_per_eval = 0.0;
  double evals_per_sec = 0.0;
  std::uint64_t evals = 0;
  std::uint64_t allocs = 0;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool identical(const sched::ScheduleResult& a, const sched::ScheduleResult& b) {
  if (a.makespan != b.makespan || a.func_rel != b.func_rel || a.peak_power != b.peak_power ||
      a.energy != b.energy || a.system_mttf != b.system_mttf ||
      a.tasks.size() != b.tasks.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    if (a.tasks[t].start != b.tasks[t].start || a.tasks[t].end != b.tasks[t].end) return false;
  }
  return true;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("schedule_kernel: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t tasks = !positional.empty()
                                ? static_cast<std::size_t>(std::atol(positional[0]))
                                : (bench::smoke() ? 10 : 40);
  const std::uint64_t seed = positional.size() > 1
                                 ? static_cast<std::uint64_t>(std::atoll(positional[1]))
                                 : exp::derive_seed(0xF165u, tasks);

  // The Fig. 5 workload: one synthetic app on the default HMPSoC with the
  // full CLR space; candidate configurations sampled uniformly from the
  // MappingProblem gene domains (the distribution the GA hot loop sees).
  const auto app = exp::make_synthetic_app(tasks, seed);
  const sched::EvalContext& ctx = app->context();
  const dse::MappingProblem problem(ctx, {1e9, 0.0}, dse::ObjectiveMode::EnergyQos);
  // Population-scale sample even at smoke: with few distinct configurations
  // the branch predictor memorizes the scalar kernel's entire evaluation
  // sequence across passes (observed to flatter it ~2x at 64 configs), which
  // no GA run — fresh offspring every generation — ever resembles.
  const std::size_t num_configs = 256;

  util::Rng rng(exp::derive_seed(0xF165u ^ 0xBE7Cu, tasks));
  std::vector<sched::Configuration> configs;
  configs.reserve(num_configs);
  std::vector<int> genes(problem.num_genes());
  for (std::size_t c = 0; c < num_configs; ++c) {
    for (std::size_t i = 0; i < genes.size(); ++i) {
      genes[i] = static_cast<int>(rng.index(static_cast<std::size_t>(problem.domain_size(i))));
    }
    configs.push_back(problem.decode(genes));
  }

  const sched::CompiledGraph cg(ctx);
  const sched::ReferenceScheduler reference;
  sched::EvalScratch scratch;

  // Contract check first: every sampled configuration must evaluate
  // bit-identically through both paths.
  bool bit_identical = true;
  for (const auto& cfg : configs) {
    if (!identical(reference.run(ctx, cfg), cg.schedule(cfg, scratch))) {
      bit_identical = false;
      break;
    }
  }

  // Batched contract: evaluate_batch over the whole sample must match the
  // scalar kernel metric-for-metric, bit-for-bit (and through it the
  // reference oracle checked above).
  sched::BatchScratch batch_scratch;
  std::vector<sched::KernelMetrics> batched_out(configs.size());
  cg.evaluate_batch({configs.data(), configs.size()}, batch_scratch,
                    {batched_out.data(), batched_out.size()});
  bool batched_bit_identical = true;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const sched::KernelMetrics m = cg.evaluate(configs[c], scratch);
    const sched::KernelMetrics& b = batched_out[c];
    if (m.makespan != b.makespan || m.func_rel != b.func_rel || m.peak_power != b.peak_power ||
        m.energy != b.energy || m.system_mttf != b.system_mttf) {
      batched_bit_identical = false;
      break;
    }
  }

  // Fine-grained paired measurement: each round times exactly one pass over
  // the whole sample per side, back to back (reference, kernel, batched), and
  // every reported ratio/speedup is the MEDIAN over rounds of the within-
  // round pairing. The three passes of a round run ~0.1-0.6 ms apart under
  // the same clock/cache state, so frequency drift (turbo ramps, thermal
  // steps — a real 2x effect on small cloud boxes) divides out of each pair,
  // and with hundreds of rounds the median shrugs off any round that caught
  // a scheduler interruption. Coarser schemes (min-of-windows per side,
  // measured independently) were observed to swing the batched ratio by 2x
  // run to run on a single-core box. Absolute ns/eval fields are the median
  // round as well — robust in both directions, unlike a min.
  using clock = std::chrono::steady_clock;
  const double target = bench::smoke() ? 0.35 : 1.5;  // total, all sides
  sched::KernelMetrics last{};

  struct Stats {
    Measurement ref, kern, batched;
    double speedup = 0.0, ratio = 0.0;
    double batched_speedup = 0.0, batched_ratio = 0.0;
    double allocs_per_eval = 0.0, batched_allocs_per_eval = 0.0;
  };
  const auto measure = [&]() {
    Stats st;
    std::vector<double> r_ns, k_ns, b_ns;
    const auto t_begin = clock::now();
    do {
      const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
      const auto t0 = clock::now();
      for (const auto& cfg : configs) {
        const auto res = reference.run(ctx, cfg);
        (void)res;
      }
      // Kernel pass (scratch is warm from the contract check above).
      const std::uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
      const auto t1 = clock::now();
      for (const auto& cfg : configs) last = cg.evaluate(cfg, scratch);
      // Batched pass: the whole sample in kLanes-wide SoA blocks
      // (batch_scratch and batched_out are warm from the contract check).
      const std::uint64_t a2 = g_alloc_count.load(std::memory_order_relaxed);
      const auto t2 = clock::now();
      cg.evaluate_batch({configs.data(), configs.size()}, batch_scratch,
                        {batched_out.data(), batched_out.size()});
      const std::uint64_t a3 = g_alloc_count.load(std::memory_order_relaxed);
      const auto t3 = clock::now();
      const double per = 1e9 / static_cast<double>(configs.size());
      r_ns.push_back(std::chrono::duration<double>(t1 - t0).count() * per);
      k_ns.push_back(std::chrono::duration<double>(t2 - t1).count() * per);
      b_ns.push_back(std::chrono::duration<double>(t3 - t2).count() * per);
      st.ref.evals += configs.size();
      st.kern.evals += configs.size();
      st.batched.evals += configs.size();
      st.kern.allocs += a2 - a1;
      st.batched.allocs += a3 - a2;
      (void)a0;
    } while (std::chrono::duration<double>(clock::now() - t_begin).count() < target);

    std::vector<double> rr_speedup(r_ns.size()), rr_bspeedup(r_ns.size()), rr_bratio(r_ns.size());
    for (std::size_t i = 0; i < r_ns.size(); ++i) {
      rr_speedup[i] = r_ns[i] / k_ns[i];
      rr_bspeedup[i] = k_ns[i] / b_ns[i];
      rr_bratio[i] = b_ns[i] / r_ns[i];
    }
    st.ref.ns_per_eval = median_of(r_ns);
    st.kern.ns_per_eval = median_of(k_ns);
    st.batched.ns_per_eval = median_of(b_ns);
    st.ref.evals_per_sec = 1e9 / st.ref.ns_per_eval;
    st.kern.evals_per_sec = 1e9 / st.kern.ns_per_eval;
    st.batched.evals_per_sec = 1e9 / st.batched.ns_per_eval;
    st.speedup = median_of(rr_speedup);
    st.ratio = 1.0 / st.speedup;
    st.allocs_per_eval = static_cast<double>(st.kern.allocs) / static_cast<double>(st.kern.evals);
    st.batched_speedup = median_of(rr_bspeedup);
    st.batched_ratio = median_of(rr_bratio);
    st.batched_allocs_per_eval =
        static_cast<double>(st.batched.allocs) / static_cast<double>(st.batched.evals);
    return st;
  };

  // Regression limits and acceptance floors come from the baseline file,
  // which records the workload they were calibrated against (hardcoded
  // fallbacks keep a floor-less baseline meaningful).
  double base_ratio = 0.0, base_bratio = 0.0;
  double speedup_floor = 3.0, batched_floor = 2.0;
  bool have_bbase = false;
  if (!baseline_path.empty()) {
    const io::Json baseline = io::Json::parse(read_text_file(baseline_path));
    base_ratio = baseline.at("normalized_ratio").as_number();
    if (const io::Json* f = baseline.find("speedup_floor")) speedup_floor = f->as_number();
    if (const io::Json* b = baseline.find("normalized_ratio_batched")) {
      base_bratio = b->as_number();
      have_bbase = true;
      if (const io::Json* f = baseline.find("batched_speedup_floor")) {
        batched_floor = f->as_number();
      }
    }
  }

  // The paired-median scheme is robust to interruptions within a run, but a
  // clock/thermal state that holds for a whole run still shifts the ratios
  // a few percent on small cloud boxes (a gate run right after a hot build
  // measures a down-clocked core, where the batched/kernel ratio is a few
  // percent worse), and a hard floor should not flake on that: a perf-gated
  // run re-measures up to three times, with a short cool-down first so the
  // core can leave the sustained-load clock state. Contract gates (bits,
  // allocs) are deterministic and never retried.
  Stats st = measure();
  for (int attempt = 1; attempt < 3 && !baseline_path.empty(); ++attempt) {
    const bool perf_ok =
        st.speedup >= speedup_floor && st.ratio <= base_ratio * 1.2 &&
        (!have_bbase ||
         (st.batched_speedup >= batched_floor && st.batched_ratio <= base_bratio * 1.2));
    if (perf_ok) break;
    std::printf("note: perf gates missed (attempt %d/3), re-measuring after cool-down\n", attempt);
    std::this_thread::sleep_for(std::chrono::seconds(3));
    st = measure();
  }

  const Measurement& ref = st.ref;
  const Measurement& kern = st.kern;
  const Measurement& batched = st.batched;
  const double speedup = st.speedup;
  const double ratio = st.ratio;
  const double allocs_per_eval = st.allocs_per_eval;
  const double batched_speedup_vs_kernel = st.batched_speedup;
  const double batched_ratio = st.batched_ratio;
  const double batched_allocs_per_eval = st.batched_allocs_per_eval;

  std::printf("schedule-evaluation kernel: %zu tasks, seed %llu, %zu configs, CLR space %zu\n",
              tasks, static_cast<unsigned long long>(seed), configs.size(),
              ctx.clr_space->size());
  std::printf("  reference: %9.1f ns/eval  (%.0f evals/sec, %llu evals)\n", ref.ns_per_eval,
              ref.evals_per_sec, static_cast<unsigned long long>(ref.evals));
  std::printf("  kernel:    %9.1f ns/eval  (%.0f evals/sec, %llu evals)\n", kern.ns_per_eval,
              kern.evals_per_sec, static_cast<unsigned long long>(kern.evals));
  std::printf("  batched:   %9.1f ns/eval  (%.0f evals/sec, %llu evals, %zu lanes, %s)\n",
              batched.ns_per_eval, batched.evals_per_sec,
              static_cast<unsigned long long>(batched.evals), sched::BatchGenomes::kLanes,
              sched::CompiledGraph::batch_backend());
  std::printf("  speedup: %.2fx   allocs/eval: %.4f   bit-identical: %s\n", speedup,
              allocs_per_eval, bit_identical ? "yes" : "NO (BUG)");
  std::printf("  batched speedup vs kernel: %.2fx   allocs/eval: %.4f   bit-identical: %s\n",
              batched_speedup_vs_kernel, batched_allocs_per_eval,
              batched_bit_identical ? "yes" : "NO (BUG)");
  (void)last;

  io::Json report(io::JsonObject{
      {"workload", io::Json(io::JsonObject{{"tasks", io::Json(tasks)},
                                           {"seed", io::Json(seed)},
                                           {"num_configs", io::Json(configs.size())},
                                           {"clr_configs", io::Json(ctx.clr_space->size())}})},
      {"reference", io::Json(io::JsonObject{{"ns_per_eval", io::Json(ref.ns_per_eval)},
                                            {"evals_per_sec", io::Json(ref.evals_per_sec)}})},
      {"kernel", io::Json(io::JsonObject{{"ns_per_eval", io::Json(kern.ns_per_eval)},
                                         {"evals_per_sec", io::Json(kern.evals_per_sec)},
                                         {"allocs_per_eval", io::Json(allocs_per_eval)}})},
      {"batched",
       io::Json(io::JsonObject{{"ns_per_eval", io::Json(batched.ns_per_eval)},
                               {"evals_per_sec", io::Json(batched.evals_per_sec)},
                               {"allocs_per_eval", io::Json(batched_allocs_per_eval)},
                               {"lanes", io::Json(sched::BatchGenomes::kLanes)},
                               {"simd_backend", io::Json(std::string(sched::CompiledGraph::batch_backend()))}})},
      {"speedup", io::Json(speedup)},
      {"batched_speedup_vs_kernel", io::Json(batched_speedup_vs_kernel)},
      {"normalized_ratio", io::Json(ratio)},
      {"normalized_ratio_batched", io::Json(batched_ratio)},
      {"bit_identical", io::Json(bit_identical)},
      {"batched_bit_identical", io::Json(batched_bit_identical)},
  });

  const char* dir = std::getenv("CLR_REPORT_DIR");
  const std::string out_path =
      (dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : std::string())
      + "BENCH_schedule.json";
  util::write_file(out_path, report.dump(2) + "\n");
  std::printf("[report] %s\n", out_path.c_str());

  bool ok = bit_identical && batched_bit_identical;
  if (allocs_per_eval > 0.0) {
    std::printf("FAIL: kernel steady-state loop allocated (%.4f allocs/eval, want 0)\n",
                allocs_per_eval);
    ok = false;
  }
  if (batched_allocs_per_eval > 0.0) {
    std::printf("FAIL: batched steady-state loop allocated (%.4f allocs/eval, want 0)\n",
                batched_allocs_per_eval);
    ok = false;
  }
  if (!baseline_path.empty()) {
    const double limit = base_ratio * 1.2;
    std::printf("baseline check: normalized ratio %.4f vs baseline %.4f (limit %.4f)\n", ratio,
                base_ratio, limit);
    if (ratio > limit) {
      std::printf("FAIL: kernel ns/eval regressed >20%% vs baseline\n");
      ok = false;
    }
    if (speedup < speedup_floor) {
      std::printf("FAIL: single-thread speedup %.2fx below the %.2fx acceptance floor\n", speedup,
                  speedup_floor);
      ok = false;
    }
    // Batched gates; the baseline field is optional so a pre-batch baseline
    // file still checks the scalar kernel.
    if (have_bbase) {
      const double blimit = base_bratio * 1.2;
      std::printf("baseline check: batched ratio %.4f vs baseline %.4f (limit %.4f)\n",
                  batched_ratio, base_bratio, blimit);
      if (batched_ratio > blimit) {
        std::printf("FAIL: batched ns/eval regressed >20%% vs baseline\n");
        ok = false;
      }
      if (batched_speedup_vs_kernel < batched_floor) {
        std::printf("FAIL: batched speedup %.2fx vs the scalar kernel below the %.2fx floor\n",
                    batched_speedup_vs_kernel, batched_floor);
        ok = false;
      }
    }
  }
  if (!bit_identical) std::printf("FAIL: kernel diverges from ReferenceScheduler\n");
  if (!batched_bit_identical) std::printf("FAIL: batched path diverges from the scalar kernel\n");
  return ok ? 0 : 1;
}
