// clrtool — command-line front end to the library's main flows.
//
//   clrtool generate --tasks N [--seed S] [--graph-out G.json]
//                    [--platform-out P.json] [--dot-out G.dot]
//       Generate a synthetic application; optionally save the graph, the
//       default platform and a Graphviz rendering.
//
//   clrtool explore  --tasks N [--seed S] [--pop P] [--gens G] [--csp]
//                    [--jobs J] [--db-out DB.json]
//       Run the hybrid design-time DSE (BaseD + ReD) and save/print the
//       design-point database. --jobs sets the evaluation concurrency
//       (default: all hardware threads); results are identical at any J.
//
//   clrtool simulate --tasks N [--seed S] [--db DB.json]
//                    [--policy ura|aura|mdp|baseline] [--prefetch]
//                    [--prc X] [--cycles C] [--sim-seed S2]
//                    [--fault-rate R] [--pe-mtbf M] [--qos-tolerance T]
//                    [--replications R] [--jobs J] [--report F.json]
//       Load a database produced by `explore` for the same (tasks, seed)
//       application and run the Monte-Carlo run-time adaptation. Without
//       --db, the design-time flow runs inline first (one process covering
//       DSE + runtime — the single-command tracing path). With
//       --replications > 1 the run goes through the replicated exp::Runner
//       harness (R derived-seed replications fanned over J workers; results
//       identical at any J) and the table reports mean ± 95% CI; --report
//       writes the full replicated grid as JSON. --fault-rate (transient
//       soft errors per PE per cycle) and --pe-mtbf (mean cycles to
//       permanent PE wear-out) switch run-time fault injection on;
//       --qos-tolerance bounds the relaxed-QoS degraded mode. --policy mdp
//       selects the offline-solved tabular MDP policy (DESIGN.md §5.14);
//       --prefetch speculatively stages the predicted next configuration on
//       the single reconfiguration port so its load time hides behind
//       serviced cycles (never changes decisions, only stall accounting).
//
//   clrtool fleet    --devices N [--shards S] [--jobs J] [--block B]
//                    [--tasks N] [--seed S] [--db DB.clrdb]
//                    [--policy ura|aura|mdp|baseline] [--prefetch]
//                    [--prc X] [--cycles C] [--sim-seed S2] [--fault-rate R]
//                    [--pe-mtbf M] [--qos-tolerance T] [--report F.json]
//       Run N independent device instances — each a runtime simulator +
//       adaptation policy over the shared (ideally snapshot-mapped) design
//       database — through the sharded fleet pipeline (DESIGN.md §5.13) and
//       print the streamed fleet/per-shard aggregates plus the devices/s
//       throughput. Aggregates are bit-identical at ANY --shards/--jobs
//       combination; --block sets the aggregation/checkpoint grain (result-
//       affecting, part of the checkpoint identity). Accepts the shared
//       checkpoint/budget flags; an interrupted fleet resumes at block
//       granularity with bit-identical final results.
//
//   clrtool inspect  --db DB.json
//       Print the stored design points.
//
//   clrtool validate --tasks N [--seed S] --db DB.json [--runs R] [--points K]
//       Fault-inject the first K stored points (Monte-Carlo execution with
//       sampled SEUs) and compare against the database's analytical metrics.
//
// Long runs (`explore`, replicated `simulate`, `fleet`) accept --checkpoint F.clrdb
// [--checkpoint-every N] [--resume] plus --time-budget / --step-budget.
// SIGINT/SIGTERM stop cooperatively: the current generation/cell finishes, a
// final checkpoint is written, the partial report prints, and the process
// exits 3 ("interrupted"); a second signal kills immediately. A killed run
// resumed with --resume is bit-identical to the uninterrupted one.
//
// All randomness is seeded; identical invocations produce identical output.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/parallel.hpp"
#include "common/stop.hpp"
#include "common/table.hpp"
#include "experiments/flow.hpp"
#include "experiments/runner.hpp"
#include "experiments/session.hpp"
#include "faults/fault_model.hpp"
#include "fleet/fleet.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "io/snapshot.hpp"
#include "runtime/drc_matrix.hpp"
#include "schedule/dot.hpp"
#include "schedule/gantt.hpp"
#include "schedule/heft.hpp"
#include "sim/fault_injection.hpp"
#include "trace/trace.hpp"

namespace {

using namespace clr;

/// Exit code of a run cut short cooperatively (SIGINT/SIGTERM, --time-budget
/// or --step-budget): the partial report was emitted and — with --checkpoint
/// — a final checkpoint written, but the run is not complete. Distinct from
/// 1 (error) and 2 (usage) so scripts can branch on "resume me later".
constexpr int kExitInterrupted = 3;

/// The process-wide stop source the signal handlers and --time-budget arm.
/// Function-local static: lives until process exit, so the async handler's
/// pointer stays valid.
util::StopSource& global_stop() {
  static util::StopSource source;
  return source;
}

/// Tiny --key value argument scanner. Malformed or unknown input throws
/// std::runtime_error with a one-line actionable message; main() turns that
/// into a non-zero exit.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::runtime_error("expected an --option, got '" + key +
                                 "' (run clrtool without arguments for usage)");
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// Reject any option not in `allowed` — a typo'd flag must fail loudly, not
  /// silently fall back to the default value.
  void expect_only(std::initializer_list<const char*> allowed) const {
    for (const auto& [key, value] : values_) {
      bool known = false;
      for (const char* a : allowed) {
        if (key == a) {
          known = true;
          break;
        }
      }
      if (!known) {
        throw std::runtime_error("unknown option --" + key +
                                 " (run clrtool without arguments for usage)");
      }
    }
  }

  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }

  long num(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      std::size_t used = 0;
      const long v = std::stol(it->second, &used);
      if (used != it->second.size()) throw std::invalid_argument("trailing characters");
      return v;
    } catch (const std::exception&) {
      throw std::runtime_error("option --" + key + ": expected an integer, got '" +
                               it->second + "'");
    }
  }

  double real(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      std::size_t used = 0;
      const double v = std::stod(it->second, &used);
      if (used != it->second.size() || !std::isfinite(v)) {
        throw std::invalid_argument("not a finite number");
      }
      return v;
    } catch (const std::exception&) {
      throw std::runtime_error("option --" + key + ": expected a finite number, got '" +
                               it->second + "'");
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Non-negative integer option with a lower bound, as std::size_t.
std::size_t size_arg(const Args& args, const std::string& key, long fallback,
                     long min_value = 0) {
  const long v = args.num(key, fallback);
  if (v < min_value) {
    throw std::runtime_error("option --" + key + ": must be >= " + std::to_string(min_value) +
                             ", got " + std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

/// Parse the shared checkpoint/budget flags into a SessionControl, validate
/// their dependencies (--resume and --checkpoint-every require --checkpoint)
/// and arm the global stop source's deadline from --time-budget.
exp::SessionControl session_control(const Args& args) {
  exp::SessionControl control;
  control.checkpoint_path = args.str("checkpoint");
  if (args.has("checkpoint") && control.checkpoint_path.empty()) {
    throw std::runtime_error("option --checkpoint: expected a .clrdb base path");
  }
  if (args.has("checkpoint-every") && !args.has("checkpoint")) {
    throw std::runtime_error("option --checkpoint-every requires --checkpoint");
  }
  control.checkpoint_every = size_arg(args, "checkpoint-every", 1, 1);
  if (args.has("resume")) {
    if (!args.has("checkpoint")) throw std::runtime_error("option --resume requires --checkpoint");
    control.resume = true;
  }
  if (args.has("time-budget")) {
    const double seconds = args.real("time-budget", 0.0);
    if (seconds <= 0.0) throw std::runtime_error("option --time-budget: must be > 0 seconds");
    global_stop().set_deadline_after(seconds);
  }
  control.step_budget = static_cast<std::uint64_t>(size_arg(args, "step-budget", 0));
  control.stop = global_stop().token();
  return control;
}

int usage() {
  std::fprintf(stderr,
               "usage: clrtool <generate|explore|simulate|fleet|inspect|validate> [options]\n"
               "  generate --tasks N [--seed S] [--graph-out F] [--platform-out F] [--dot-out F]\n"
               "  explore  --tasks N [--seed S] [--pop P] [--gens G] [--csp] [--jobs J]\n"
               "           [--db-out F] [--trace F2] [--trace-categories C]\n"
               "           [--checkpoint F.clrdb] [--checkpoint-every N] [--resume]\n"
               "           [--time-budget SEC] [--step-budget N]\n"
               "  simulate --tasks N [--seed S] [--db F] [--policy ura|aura|mdp|baseline]\n"
               "           [--prefetch] [--prc X]\n"
               "           [--cycles C] [--sim-seed S2] [--fault-rate R] [--pe-mtbf M]\n"
               "           [--qos-tolerance T] [--replications R] [--jobs J] [--report F]\n"
               "           [--pop P] [--gens G] [--trace F2] [--trace-categories C]\n"
               "           [--checkpoint F.clrdb] [--checkpoint-every N] [--resume]\n"
               "           [--time-budget SEC] [--step-budget N]\n"
               "           (without --db the design-time flow runs inline first)\n"
               "  fleet    --devices N [--shards S] [--jobs J] [--block B] [--tasks N] [--seed S]\n"
               "           [--db F] [--policy ura|aura|mdp|baseline] [--prefetch] [--prc X]\n"
               "           [--cycles C]\n"
               "           [--sim-seed S2] [--fault-rate R] [--pe-mtbf M] [--qos-tolerance T]\n"
               "           [--report F] [--pop P] [--gens G]\n"
               "           [--checkpoint F.clrdb] [--checkpoint-every N] [--resume]\n"
               "           [--time-budget SEC] [--step-budget N]\n"
               "           (aggregates are bit-identical at any --shards/--jobs)\n"
               "  inspect  --db F\n"
               "  validate --tasks N [--seed S] --db F [--runs R] [--points K] [--sim-seed S2]\n"
               "--trace writes a Chrome trace_event JSON timeline (Perfetto /\n"
               "chrome://tracing) and prints a per-span summary; --trace-categories\n"
               "filters it to a comma list of dse,runtime,exp,drc,bench (default all).\n"
               "--checkpoint writes crash-safe A/B checkpoints (<F>.a/<F>.b) at generation\n"
               "or job-batch boundaries; --resume continues from the newest good one with\n"
               "bit-identical results. SIGINT/SIGTERM, --time-budget (wall-clock seconds)\n"
               "and --step-budget (boundaries) stop cooperatively: the partial report is\n"
               "printed, a final checkpoint written, and the exit code is 3.\n");
  return 2;
}

/// Turn tracing on when --trace is present. Returns the output path ("" =
/// tracing off). Must run before the traced work starts.
std::string setup_trace(const Args& args) {
  if (!args.has("trace")) {
    if (args.has("trace-categories")) {
      throw std::runtime_error("option --trace-categories requires --trace");
    }
    return "";
  }
  const std::string path = args.str("trace");
  if (path.empty()) throw std::runtime_error("option --trace: expected an output path");
  std::uint32_t mask = trace::kAllCategories;
  try {
    mask = trace::parse_categories(args.str("trace-categories", "all"));
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("option --trace-categories: ") + e.what());
  }
  trace::Tracer::instance().enable(mask);
  return path;
}

/// Stop tracing, write the Chrome JSON file and print the summary table.
void finish_trace(const std::string& path) {
  if (path.empty()) return;
  auto& tracer = trace::Tracer::instance();
  tracer.disable();
  util::write_file(path, tracer.chrome_trace().dump() + "\n");
  std::printf("%s", tracer.summary().c_str());
  std::printf("trace (%zu events) written to %s\n", tracer.num_events(), path.c_str());
  tracer.clear();
}

int cmd_generate(const Args& args) {
  args.expect_only({"tasks", "seed", "graph-out", "platform-out", "dot-out"});
  const auto tasks = size_arg(args, "tasks", 20, 1);
  const auto seed = static_cast<std::uint64_t>(size_arg(args, "seed", 1));
  const auto app = exp::make_synthetic_app(tasks, seed);
  std::printf("generated %zu-task application (seed %llu): %zu edges, %zu PEs, CLR space %zu\n",
              tasks, static_cast<unsigned long long>(seed), app->graph().num_edges(),
              app->platform().num_pes(), app->clr_space().size());
  if (args.has("graph-out")) {
    util::write_file(args.str("graph-out"), io::to_json(app->graph()).dump(2) + "\n");
    std::printf("graph written to %s\n", args.str("graph-out").c_str());
  }
  if (args.has("platform-out")) {
    util::write_file(args.str("platform-out"), io::to_json(app->platform()).dump(2) + "\n");
    std::printf("platform written to %s\n", args.str("platform-out").c_str());
  }
  if (args.has("dot-out")) {
    util::write_file(args.str("dot-out"), sched::to_dot(app->graph(), sched::heft_seed(app->context())));
    std::printf("DOT (HEFT mapping overlay) written to %s\n", args.str("dot-out").c_str());
  }
  return 0;
}

int cmd_explore(const Args& args) {
  args.expect_only({"tasks", "seed", "pop", "gens", "csp", "jobs", "db-out", "trace",
                    "trace-categories", "checkpoint", "checkpoint-every", "resume", "time-budget",
                    "step-budget"});
  const auto tasks = size_arg(args, "tasks", 20, 1);
  const auto seed = static_cast<std::uint64_t>(size_arg(args, "seed", 1));
  const exp::SessionControl control = session_control(args);
  const std::string trace_path = setup_trace(args);
  const auto app = exp::make_synthetic_app(tasks, seed);

  exp::FlowParams params;
  params.dse.base_ga.population = size_arg(args, "pop", 64, 2);
  params.dse.base_ga.generations = size_arg(args, "gens", 60, 1);
  // 0 = auto (std::thread::hardware_concurrency); the front is bit-for-bit
  // identical at any job count.
  params.dse.threads = size_arg(args, "jobs", 0);
  if (args.has("csp")) params.mode = dse::ObjectiveMode::CspQos;

  util::install_stop_signal_handlers(global_stop());
  const auto outcome = exp::run_explore_session(*app, params, seed ^ 0xD5EULL, control);
  const auto& flow = outcome.flow;
  if (outcome.resumed) {
    std::printf("resumed from checkpoint %s (.a/.b)\n", control.checkpoint_path.c_str());
  }
  std::printf("spec: Sapp <= %.2f, Fapp >= %.5f\nBaseD: %s\nReD:   %s\n", flow.spec.max_makespan,
              flow.spec.min_func_rel, flow.based.summary().c_str(), flow.red.summary().c_str());
  if (!outcome.complete) {
    // Partial report only; the database on disk stays the checkpoint, not a
    // half-built artifact that could be mistaken for the full result.
    std::printf("interrupted (%s) after %llu generation boundaries",
                util::stop_reason_name(outcome.stop_reason),
                static_cast<unsigned long long>(outcome.steps));
    if (!control.checkpoint_path.empty()) {
      std::printf("; %llu checkpoint(s) written — rerun with --resume to continue",
                  static_cast<unsigned long long>(outcome.checkpoints_written));
    }
    std::printf("\n");
    finish_trace(trace_path);
    return kExitInterrupted;
  }
  if (args.has("db-out")) {
    const std::string out = args.str("db-out");
    if (io::is_snapshot_path(out)) {
      // Binary snapshot: persist the DrcMatrix too, so later `simulate`
      // processes skip the O(n²·tasks) rebuild entirely.
      recfg::ReconfigModel reconfig(app->platform(), app->impls());
      util::ThreadPool pool(params.dse.threads);
      rt::DrcMatrix drc(flow.red, reconfig, &pool);
      io::save_snapshot(out, flow.red, app->clr_space(), &drc);
    } else {
      io::save_design_db(out, flow.red, app->clr_space());
    }
    std::printf("database written to %s\n", out.c_str());
  }
  finish_trace(trace_path);
  return 0;
}

int cmd_simulate(const Args& args) {
  args.expect_only({"tasks", "seed", "db", "policy", "prefetch", "prc", "cycles", "sim-seed",
                    "fault-rate", "pe-mtbf", "qos-tolerance", "replications", "jobs", "report",
                    "trace", "trace-categories", "pop", "gens", "checkpoint", "checkpoint-every",
                    "resume", "time-budget", "step-budget"});
  // Validate every option before touching the filesystem, so a typo'd flag
  // value fails fast with the option-level message.
  const auto tasks = size_arg(args, "tasks", 20, 1);
  const auto seed = static_cast<std::uint64_t>(size_arg(args, "seed", 1));

  exp::RuntimeEvalParams params;
  const std::string policy = args.str("policy", "ura");
  if (policy == "ura") params.kind = exp::PolicyKind::Ura;
  else if (policy == "aura") params.kind = exp::PolicyKind::Aura;
  else if (policy == "mdp") params.kind = exp::PolicyKind::Mdp;
  else if (policy == "baseline") params.kind = exp::PolicyKind::Baseline;
  else {
    std::fprintf(stderr, "simulate: unknown policy '%s' (use ura, aura, mdp or baseline)\n",
                 policy.c_str());
    return usage();
  }
  params.prefetch = args.has("prefetch");
  params.p_rc = args.real("prc", 0.5);
  if (params.p_rc < 0.0 || params.p_rc > 1.0) {
    throw std::runtime_error("option --prc: must be in [0, 1]");
  }
  params.sim.total_cycles = args.real("cycles", 2e5);
  if (params.sim.total_cycles <= 0.0) {
    throw std::runtime_error("option --cycles: must be > 0");
  }

  // Run-time fault environment (off unless a rate is given). validate()
  // turns out-of-range values into the one-line error contract.
  params.faults.transient_rate = args.real("fault-rate", 0.0);
  params.faults.pe_mtbf = args.real("pe-mtbf", 0.0);
  params.faults.qos_tolerance = args.real("qos-tolerance", params.faults.qos_tolerance);
  params.faults.validate();

  const auto sim_seed = static_cast<std::uint64_t>(size_arg(args, "sim-seed", 7));
  const auto replications = size_arg(args, "replications", 1, 1);
  const bool replicated = replications > 1 || args.has("report");
  if (!replicated && (args.has("checkpoint") || args.has("resume") || args.has("time-budget") ||
                      args.has("step-budget") || args.has("checkpoint-every"))) {
    throw std::runtime_error(
        "simulate: --checkpoint/--resume/--time-budget/--step-budget need the replicated "
        "runner — pass --replications > 1 (or --report)");
  }
  const exp::SessionControl control = session_control(args);
  const std::string trace_path = setup_trace(args);

  // Design database: load one produced by `explore` (--db), or — without
  // --db — run the design-time flow inline first (one-shot explore+simulate,
  // the path that traces DSE and runtime into a single timeline).
  std::unique_ptr<exp::AppInstance> app;
  dse::DesignDb db;
  // Filled when a .clrdb snapshot carries the precomputed cost matrix; the
  // evaluation below then skips the per-process DrcMatrix rebuild.
  std::optional<rt::DrcMatrix> snapshot_drc;
  if (args.has("db")) {
    const std::string db_path = args.str("db");
    if (io::is_snapshot_path(db_path)) {
      auto loaded = io::load_snapshot(db_path);
      app = exp::make_synthetic_app_with_space(tasks, seed, loaded.space);
      db = std::move(loaded.db);
      snapshot_drc = std::move(loaded.drc);
    } else {
      const auto loaded = io::load_design_db(db_path);
      // Rebuild the identical application (the database stores indices into
      // its implementation sets, which regenerate deterministically per seed).
      app = exp::make_synthetic_app_with_space(tasks, seed, loaded.space);
      db = loaded.db;
    }
  } else {
    app = exp::make_synthetic_app(tasks, seed);
    exp::FlowParams flow_params;
    flow_params.dse.base_ga.population = size_arg(args, "pop", 64, 2);
    flow_params.dse.base_ga.generations = size_arg(args, "gens", 60, 1);
    flow_params.dse.threads = size_arg(args, "jobs", 0);
    util::Rng flow_rng(seed ^ 0xD5EULL);
    db = exp::run_design_flow(*app, flow_params, flow_rng).red;
    std::printf("explored inline: %zu stored design points (pass --db to reuse a saved "
                "database)\n",
                db.size());
  }

  // QoS box from the database's own ranges, widened like qos_ranges().
  const auto r = db.ranges();
  dse::MetricRanges box = r;
  box.makespan_max = r.makespan_max + 0.25 * (r.makespan_max - r.makespan_min);
  box.func_rel_min = r.func_rel_min - 0.25 * (r.func_rel_max - r.func_rel_min);

  if (!replicated) {
    const auto stats = snapshot_drc
                           ? exp::evaluate_policy(*app, db, *snapshot_drc, box, params, sim_seed)
                           : exp::evaluate_policy(*app, db, box, params, sim_seed);
    util::TextTable table("simulation result");
    table.set_header({"policy", "pRC", "cycles", "avg energy", "avg dRC/event", "#reconfigs",
                      "QoS violations", "availability", "MTTR", "unrecovered"});
    table.add_row({policy, util::TextTable::fmt(params.p_rc, 2),
                   util::TextTable::fmt(params.sim.total_cycles, 0),
                   util::TextTable::fmt(stats.avg_energy, 2),
                   util::TextTable::fmt(stats.avg_reconfig_cost, 2),
                   std::to_string(stats.num_reconfigs),
                   std::to_string(stats.num_infeasible_events),
                   util::TextTable::fmt(stats.availability, 5),
                   util::TextTable::fmt(stats.mttr, 1),
                   std::to_string(stats.num_unrecovered_failures)});
    std::printf("%s", table.to_string().c_str());
    finish_trace(trace_path);
    return 0;
  }

  // Replicated path: derived seeds per replication, fanned over the harness.
  exp::RunnerConfig config;
  config.replications = replications;
  config.jobs = size_arg(args, "jobs", 0);
  exp::Runner runner(config);
  exp::RunnerCell cell;
  cell.app = app.get();
  cell.db = &db;
  if (snapshot_drc) cell.drc = &*snapshot_drc;
  cell.ranges = box;
  cell.params = params;
  cell.seed = sim_seed;
  cell.label = policy + " pRC=" + util::TextTable::fmt(params.p_rc, 2);
  runner.add_cell(std::move(cell));
  util::install_stop_signal_handlers(global_stop());
  const exp::RunnerOutcome session = exp::run_runner_session(runner, control);
  const auto& results = session.run.results;
  const auto& s = results.front().stats;
  if (session.resumed) {
    std::printf("resumed from checkpoint %s (.a/.b)\n", control.checkpoint_path.c_str());
  }

  const auto ci = [](const util::Summary& f, int prec) {
    return util::TextTable::fmt(f.mean, prec) + " ±" + util::TextTable::fmt(f.ci95, prec);
  };
  util::TextTable table("simulation result (" + std::to_string(s.replications) + " of " +
                        std::to_string(replications) + " replications, mean ±95% CI)");
  table.set_header({"policy", "pRC", "cycles", "avg energy", "avg dRC/event", "#reconfigs",
                    "QoS violations", "availability", "MTTR", "unrecovered"});
  table.add_row({policy, util::TextTable::fmt(params.p_rc, 2),
                 util::TextTable::fmt(params.sim.total_cycles, 0), ci(s.avg_energy, 2),
                 ci(s.avg_reconfig_cost, 2), ci(s.num_reconfigs, 1),
                 ci(s.num_infeasible_events, 1), ci(s.availability, 5), ci(s.mttr, 1),
                 ci(s.num_unrecovered_failures, 1)});
  std::printf("%s", table.to_string().c_str());
  if (args.has("report")) {
    const auto report = exp::grid_report("clrtool_simulate", config, results, &runner.metrics(),
                                         !session.run.complete);
    util::write_file(args.str("report"), report.dump(2) + "\n");
    std::printf("report written to %s\n", args.str("report").c_str());
  }
  if (!session.run.complete) {
    std::printf("interrupted (%s): %llu of %llu replication jobs done",
                util::stop_reason_name(session.stop_reason),
                static_cast<unsigned long long>(session.run.jobs_done),
                static_cast<unsigned long long>(session.run.jobs_total));
    if (!control.checkpoint_path.empty()) {
      std::printf("; %llu checkpoint(s) written — rerun with --resume to continue",
                  static_cast<unsigned long long>(session.checkpoints_written));
    }
    std::printf("\n");
    finish_trace(trace_path);
    return kExitInterrupted;
  }
  finish_trace(trace_path);
  return 0;
}

int cmd_fleet(const Args& args) {
  args.expect_only({"devices", "shards", "jobs", "block", "tasks", "seed", "db", "policy",
                    "prefetch", "prc", "cycles", "sim-seed", "fault-rate", "pe-mtbf",
                    "qos-tolerance", "report", "pop", "gens", "checkpoint", "checkpoint-every",
                    "resume", "time-budget", "step-budget"});
  const auto tasks = size_arg(args, "tasks", 20, 1);
  const auto seed = static_cast<std::uint64_t>(size_arg(args, "seed", 1));

  fleet::FleetConfig config;
  config.devices = static_cast<std::uint64_t>(size_arg(args, "devices", 100000));
  config.shards = size_arg(args, "shards", 0);
  config.jobs = size_arg(args, "jobs", 0);
  config.block_size = static_cast<std::uint64_t>(size_arg(args, "block", 1024, 1));
  config.seed = static_cast<std::uint64_t>(size_arg(args, "sim-seed", 7));

  exp::RuntimeEvalParams& params = config.params;
  const std::string policy = args.str("policy", "ura");
  if (policy == "ura") params.kind = exp::PolicyKind::Ura;
  else if (policy == "aura") params.kind = exp::PolicyKind::Aura;
  else if (policy == "mdp") params.kind = exp::PolicyKind::Mdp;
  else if (policy == "baseline") params.kind = exp::PolicyKind::Baseline;
  else {
    std::fprintf(stderr, "fleet: unknown policy '%s' (use ura, aura, mdp or baseline)\n",
                 policy.c_str());
    return usage();
  }
  params.prefetch = args.has("prefetch");
  params.p_rc = args.real("prc", 0.5);
  if (params.p_rc < 0.0 || params.p_rc > 1.0) {
    throw std::runtime_error("option --prc: must be in [0, 1]");
  }
  // Shorter default horizon than `simulate` (2e4 vs 2e5 cycles): fleet runs
  // amortize statistical power across devices, not cycles.
  params.sim.total_cycles = args.real("cycles", 2e4);
  if (params.sim.total_cycles <= 0.0) {
    throw std::runtime_error("option --cycles: must be > 0");
  }
  params.faults.transient_rate = args.real("fault-rate", 0.0);
  params.faults.pe_mtbf = args.real("pe-mtbf", 0.0);
  params.faults.qos_tolerance = args.real("qos-tolerance", params.faults.qos_tolerance);
  params.faults.validate();

  const exp::SessionControl control = session_control(args);

  // Design database: a .clrdb snapshot (the fleet-scale path — one mapped
  // copy, DrcMatrix included), a JSON artifact, or an inline explore.
  std::unique_ptr<exp::AppInstance> app;
  dse::DesignDb db;
  std::optional<rt::DrcMatrix> drc;
  if (args.has("db")) {
    const std::string db_path = args.str("db");
    if (io::is_snapshot_path(db_path)) {
      auto loaded = io::load_snapshot(db_path);
      app = exp::make_synthetic_app_with_space(tasks, seed, loaded.space);
      db = std::move(loaded.db);
      drc = std::move(loaded.drc);
    } else {
      const auto loaded = io::load_design_db(db_path);
      app = exp::make_synthetic_app_with_space(tasks, seed, loaded.space);
      db = loaded.db;
    }
  } else {
    app = exp::make_synthetic_app(tasks, seed);
    exp::FlowParams flow_params;
    flow_params.dse.base_ga.population = size_arg(args, "pop", 64, 2);
    flow_params.dse.base_ga.generations = size_arg(args, "gens", 60, 1);
    flow_params.dse.threads = config.jobs;
    util::Rng flow_rng(seed ^ 0xD5EULL);
    db = exp::run_design_flow(*app, flow_params, flow_rng).red;
    std::printf("explored inline: %zu stored design points (pass --db to reuse a saved "
                "database)\n",
                db.size());
  }
  if (!drc) {
    // No precomputed matrix in the artifact: rebuild it once, up front (the
    // pipeline itself never computes pairwise costs).
    recfg::ReconfigModel reconfig(app->platform(), app->impls());
    util::ThreadPool pool(config.jobs);
    drc.emplace(db, reconfig, &pool);
  }

  // Per-device fault environment mirrors exp::evaluate_policy: per-PE SER
  // profiles derived from the platform when injection is on.
  if (params.faults.enabled() && params.fault_profiles.empty()) {
    params.fault_profiles = flt::profiles_from_platform(app->platform());
  }

  // QoS box from the database's own ranges, widened like qos_ranges().
  const auto r = db.ranges();
  config.ranges = r;
  config.ranges.makespan_max = r.makespan_max + 0.25 * (r.makespan_max - r.makespan_min);
  config.ranges.func_rel_min = r.func_rel_min - 0.25 * (r.func_rel_max - r.func_rel_min);

  util::install_stop_signal_handlers(global_stop());
  const fleet::FleetSessionOutcome outcome =
      fleet::run_fleet_session(db, *drc, &app->clr_space(), config, control);
  const fleet::FleetResult& result = outcome.result;
  const fleet::FleetSummary& s = result.summary;
  if (outcome.resumed) {
    std::printf("resumed from checkpoint %s (.a/.b): %llu of %llu blocks were done\n",
                control.checkpoint_path.c_str(),
                static_cast<unsigned long long>(result.progress.blocks_done() -
                                                result.blocks_done_this_run),
                static_cast<unsigned long long>(result.progress.done.size()));
  }

  util::TextTable table("fleet result (" + std::to_string(result.devices_done) + " of " +
                        std::to_string(config.devices) + " devices)");
  table.set_header({"policy", "pRC", "cycles", "mean energy", "reconfigs", "QoS violations",
                    "unrecovered", "mean avail", "mean MTTR", "max dRC"});
  table.add_row({policy, util::TextTable::fmt(params.p_rc, 2),
                 util::TextTable::fmt(params.sim.total_cycles, 0),
                 util::TextTable::fmt(s.mean_energy, 2), std::to_string(s.totals.reconfigs),
                 std::to_string(s.totals.infeasible_events),
                 std::to_string(s.totals.unrecovered_failures),
                 util::TextTable::fmt(s.mean_availability, 5),
                 util::TextTable::fmt(s.mean_mttr, 1), util::TextTable::fmt(s.totals.max_drc, 2)});
  std::printf("%s", table.to_string().c_str());

  util::TextTable shard_table("per-shard aggregates (bit-identical at any --shards/--jobs)");
  shard_table.set_header({"shard", "devices", "events", "reconfigs", "QoS violations",
                          "unrecovered", "mean energy", "mean avail"});
  for (const fleet::ShardSummary& sh : result.shards) {
    const double n = sh.totals.devices > 0 ? static_cast<double>(sh.totals.devices) : 1.0;
    shard_table.add_row({std::to_string(sh.shard), std::to_string(sh.totals.devices),
                         std::to_string(sh.totals.events), std::to_string(sh.totals.reconfigs),
                         std::to_string(sh.totals.infeasible_events),
                         std::to_string(sh.totals.unrecovered_failures),
                         util::TextTable::fmt(sh.totals.energy_sum / n, 2),
                         util::TextTable::fmt(sh.totals.availability_sum / n, 5)});
  }
  std::printf("%s", shard_table.to_string().c_str());
  std::printf("throughput: %.0f devices/s (%llu block(s) in %.2f s, %zu worker thread(s))\n",
              result.devices_per_second,
              static_cast<unsigned long long>(result.blocks_done_this_run), result.wall_seconds,
              util::resolve_threads(config.jobs));

  if (args.has("report")) {
    io::JsonArray shard_rows;
    for (const fleet::ShardSummary& sh : result.shards) {
      io::JsonObject row{
          {"shard", io::Json(static_cast<std::uint64_t>(sh.shard))},
          {"first_device", io::Json(sh.first_device)},
          {"num_devices", io::Json(sh.num_devices)},
          {"devices_done", io::Json(sh.totals.devices)},
      };
      fleet::for_each_block_stat([&](const char* name, std::uint32_t, auto member) {
        row.emplace_back(name, io::Json(sh.totals.*member));
      });
      shard_rows.push_back(io::Json(std::move(row)));
    }
    // Each count and the max as its fleet total, each sum as its per-device
    // mean, in FleetState order.
    io::JsonObject summary;
    for (const rt::Fold group : rt::kFoldOrder) {
#define CLR_SUMMARY_KEY(stat, fold, since, device, block, mean, replicated)             \
  CLR_STAT_IF(block)(if (group == rt::Fold::fold && group != rt::Fold::Sum)             \
                         summary.emplace_back(#block, io::Json(s.totals.block));)       \
  CLR_STAT_IF(mean)(if (group == rt::Fold::fold) summary.emplace_back(#mean, io::Json(s.mean));)
      CLR_RUNTIME_STATS(CLR_SUMMARY_KEY)
#undef CLR_SUMMARY_KEY
    }
    const io::Json report(io::JsonObject{
        {"experiment", io::Json("clrtool_fleet")},
        {"devices", io::Json(config.devices)},
        {"shards", io::Json(static_cast<std::uint64_t>(result.shards.size()))},
        {"jobs", io::Json(static_cast<std::uint64_t>(util::resolve_threads(config.jobs)))},
        {"block_size", io::Json(config.block_size)},
        {"seed", io::Json(config.seed)},
        {"policy", io::Json(policy)},
        {"prefetch", io::Json(params.prefetch)},
        {"p_rc", io::Json(params.p_rc)},
        {"cycles", io::Json(params.sim.total_cycles)},
        {"fault_rate", io::Json(params.faults.transient_rate)},
        {"pe_mtbf", io::Json(params.faults.pe_mtbf)},
        {"complete", io::Json(result.complete)},
        {"devices_done", io::Json(result.devices_done)},
        {"devices_per_second", io::Json(result.devices_per_second)},
        {"wall_seconds", io::Json(result.wall_seconds)},
        {"summary", io::Json(std::move(summary))},
        {"shard_aggregates", io::Json(std::move(shard_rows))},
    });
    util::write_file(args.str("report"), report.dump(2) + "\n");
    std::printf("report written to %s\n", args.str("report").c_str());
  }

  if (!result.complete) {
    std::printf("interrupted (%s): %llu of %llu blocks done",
                util::stop_reason_name(outcome.stop_reason),
                static_cast<unsigned long long>(result.progress.blocks_done()),
                static_cast<unsigned long long>(result.progress.done.size()));
    if (!control.checkpoint_path.empty()) {
      std::printf("; %llu checkpoint(s) written — rerun with --resume to continue",
                  static_cast<unsigned long long>(outcome.checkpoints_written));
    }
    std::printf("\n");
    return kExitInterrupted;
  }
  return 0;
}

int cmd_validate(const Args& args) {
  args.expect_only({"tasks", "seed", "db", "runs", "points", "sim-seed"});
  if (!args.has("db")) {
    std::fprintf(stderr, "validate: --db is required\n");
    return usage();
  }
  const auto tasks = size_arg(args, "tasks", 20, 1);
  const auto seed = static_cast<std::uint64_t>(size_arg(args, "seed", 1));
  const auto loaded = io::load_design_db(args.str("db"));
  const auto app = exp::make_synthetic_app_with_space(tasks, seed, loaded.space);
  const auto runs = size_arg(args, "runs", 3000, 1);
  const auto max_points = size_arg(args, "points", 5, 1);

  const sim::MonteCarloValidator validator(app->context());
  sched::EvalScratch scratch;
  util::Rng rng(static_cast<std::uint64_t>(args.num("sim-seed", 11)));

  util::TextTable table("fault-injection validation (" + std::to_string(runs) + " runs/point)");
  table.set_header({"#", "S stored", "S empirical", "J stored", "J empirical", "F stored",
                    "F empirical"});
  for (std::size_t i = 0; i < std::min(max_points, loaded.db.size()); ++i) {
    const auto& p = loaded.db.point(i);
    const auto agg = validator.run_many(p.config, runs, rng);
    const auto analytical = validator.graph().evaluate(p.config, scratch);
    table.add_row({std::to_string(i), util::TextTable::fmt(analytical.makespan, 2),
                   util::TextTable::fmt(agg.makespan.mean(), 2),
                   util::TextTable::fmt(analytical.energy, 2),
                   util::TextTable::fmt(agg.energy.mean(), 2),
                   util::TextTable::fmt(analytical.func_rel, 5),
                   util::TextTable::fmt(agg.weighted_success.mean(), 5)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("empirical columns should track the stored/analytical ones closely; see\n"
              "tests/sim/test_fault_injection.cpp for the formal tolerances.\n");
  return 0;
}

int cmd_inspect(const Args& args) {
  args.expect_only({"db"});
  if (!args.has("db")) {
    std::fprintf(stderr, "inspect: --db is required\n");
    return usage();
  }
  const auto loaded = io::load_design_db(args.str("db"));
  std::printf("%s\nCLR space: %zu configurations\n\n", loaded.db.summary().c_str(),
              loaded.space.size());
  util::TextTable table("stored design points");
  table.set_header({"#", "", "Sapp", "Fapp", "Japp"});
  for (std::size_t i = 0; i < loaded.db.size(); ++i) {
    const auto& p = loaded.db.point(i);
    table.add_row({std::to_string(i), p.extra ? ">" : "*", util::TextTable::fmt(p.makespan, 2),
                   util::TextTable::fmt(p.func_rel, 5), util::TextTable::fmt(p.energy, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

}  // namespace

namespace {

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const Args args(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "explore") return cmd_explore(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "fleet") return cmd_fleet(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "validate") return cmd_validate(args);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clrtool: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // `clrtool inspect | head` closes our stdout mid-write; the default
  // disposition would kill the process with no message and exit code 141.
  // Ignore the signal so writes fail with EPIPE instead, and report that as
  // an ordinary error below.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  const int code = dispatch(argc, argv);
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "clrtool: error writing to stdout (broken pipe or device full)\n");
    return code == 0 ? 1 : code;
  }
  return code;
}
