// clrtool — command-line front end to the library's main flows.
//
//   generate  a synthetic application; optionally its graph, platform and DOT
//   explore   the design-time DSE (BaseD + ReD) and its design database: JSON,
//             or for a --db-out ending in .clrdb the snapshot with the DrcMatrix
//   simulate  run-time adaptation over one database; with --replications > 1
//             or --report, replicated through exp::Runner (mean ± 95% CI)
//   fleet     N independent devices through the sharded fleet pipeline
//             (DESIGN.md §5.13), with the fleet and per-shard aggregates
//   inspect   the stored design points
//   validate  Monte-Carlo fault injection of the first stored points against
//             their stored metrics
//
// kOptions is the only list of options: it drives parsing, the checks and the
// usage text (clrtool without arguments). `simulate`, `fleet` and `validate`
// read --db through load_design(); without --db, `simulate` and `fleet` run
// the design-time flow inline first. Results are identical at any --jobs, and
// fleet aggregates at any --shards.
//
// Long runs (`explore`, replicated `simulate`, `fleet`) checkpoint and stop
// cooperatively: --checkpoint/--resume, --time-budget/--step-budget and
// SIGINT/SIGTERM (a second signal kills). A resumed run is bit-identical to
// the uninterrupted one.
//
// Exit codes: 0 success; 1 error, with one line on stderr — option errors fail
// before any work starts, as do unreadable files and a database that does not
// match --tasks/--seed; 2 missing or unknown subcommand, with the usage; 3
// interrupted, after the partial report and a final checkpoint.
//
// All randomness is seeded; identical invocations produce identical output.

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "common/stop.hpp"
#include "common/table.hpp"
#include "experiments/flow.hpp"
#include "experiments/runner.hpp"
#include "experiments/session.hpp"
#include "faults/fault_model.hpp"
#include "fleet/fleet.hpp"
#include "io/checkpoint.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "io/snapshot.hpp"
#include "runtime/drc_matrix.hpp"
#include "schedule/compiled_graph.hpp"
#include "schedule/dot.hpp"
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

/// Subcommands, as bits of Option::commands.
enum Command : unsigned {
  kGenerate = 1, kExplore = 2, kSimulate = 4, kFleet = 8, kInspect = 16, kValidate = 32
};
constexpr unsigned kRuntime = kSimulate | kFleet;
constexpr unsigned kLongRun = kExplore | kRuntime;  // design flow, checkpoint and budget options
constexpr unsigned kApp = kGenerate | kLongRun | kValidate;

/// One option: its name, the name of its value in the usage text (nullptr
/// for a flag, which takes none) and the subcommands that accept it.
struct Option {
  const char* name;
  const char* value;
  unsigned commands;
};

constexpr Option kOptions[] = {
    {"tasks", "N", kApp},
    {"seed", "S", kApp},
    {"graph-out", "F", kGenerate},
    {"platform-out", "F", kGenerate},
    {"dot-out", "F", kGenerate},
    {"db", "F", kRuntime | kInspect | kValidate},
    {"db-out", "F", kExplore},
    {"pop", "P", kLongRun},
    {"gens", "G", kLongRun},
    {"csp", nullptr, kExplore},
    {"jobs", "J", kLongRun},
    {"devices", "N", kFleet},
    {"shards", "S", kFleet},
    {"block", "B", kFleet},
    {"policy", "ura|aura|mdp|baseline", kRuntime},
    {"prefetch", nullptr, kRuntime},
    {"prc", "X", kRuntime},
    {"cycles", "C", kRuntime},
    {"sim-seed", "S2", kRuntime | kValidate},
    {"fault-rate", "R", kRuntime},
    {"pe-mtbf", "M", kRuntime},
    {"qos-tolerance", "T", kRuntime},
    {"replications", "R", kSimulate},
    {"runs", "R", kValidate},
    {"points", "K", kValidate},
    {"report", "F", kRuntime},
    {"trace", "F", kExplore | kSimulate},
    {"trace-categories", "C", kExplore | kSimulate},
    {"checkpoint", "F.clrdb", kLongRun},
    {"checkpoint-every", "N", kLongRun},
    {"resume", nullptr, kLongRun},
    {"time-budget", "SEC", kLongRun},
    {"step-budget", "N", kLongRun},
};
constexpr std::size_t kNumOptions = std::size(kOptions);

/// Index of `name` in kOptions, or kNumOptions.
std::size_t option_index(std::string_view name) {
  std::size_t i = 0;
  while (i < kNumOptions && name != kOptions[i].name) ++i;
  return i;
}

/// The options of one invocation, checked against kOptions as they are read.
/// Malformed input throws std::runtime_error with a one-line actionable
/// message; main() turns that into exit code 1.
class Args {
 public:
  Args(Command command, int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        throw std::runtime_error("expected an --option, got '" + token +
                                 "' (run clrtool without arguments for usage)");
      }
      const std::string name = token.substr(2);
      const std::size_t k = option_index(name);
      if (k == kNumOptions || (kOptions[k].commands & command) == 0) {
        throw std::runtime_error("unknown option --" + name +
                                 " (run clrtool without arguments for usage)");
      }
      if (values_[k]) throw std::runtime_error("option --" + name + " given more than once");
      const bool flag = kOptions[k].value == nullptr;
      const bool value_follows = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
      if (flag && value_follows) {
        throw std::runtime_error("option --" + name + " takes no value, got '" + argv[i + 1] + "'");
      }
      if (!flag && (!value_follows || argv[i + 1][0] == '\0')) {
        throw std::runtime_error("option --" + name + ": missing its value " + kOptions[k].value);
      }
      values_[k].emplace(flag ? "" : argv[++i]);
    }
  }

  bool has(std::string_view name) const { return find(name) != nullptr; }

  void require(std::string_view name) const {
    if (!has(name)) throw std::runtime_error("option --" + std::string(name) + " is required");
  }

  std::string str(std::string_view name, const std::string& fallback = "") const {
    const std::string* v = find(name);
    return v != nullptr ? *v : fallback;
  }

  /// Integer option >= min_value.
  std::size_t integer(std::string_view name, long fallback, long min_value = 0) const {
    const long v = parse(name, fallback, "an integer", [](const std::string& text, std::size_t* n) {
      return std::stol(text, n);
    });
    if (v < min_value) {
      throw std::runtime_error("option --" + std::string(name) + ": must be >= " +
                               std::to_string(min_value) + ", got " + std::to_string(v));
    }
    return static_cast<std::size_t>(v);
  }

  double real(std::string_view name, double fallback) const {
    return parse(name, fallback, "a finite number", [](const std::string& text, std::size_t* n) {
      return std::stod(text, n);
    });
  }

 private:
  /// The value of `name` read whole by `read`, or `fallback` when absent.
  template <typename T, typename Read>
  T parse(std::string_view name, T fallback, const char* expected, Read read) const {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    try {
      std::size_t used = 0;
      const T parsed = read(*v, &used);
      if (used == v->size() && std::isfinite(static_cast<double>(parsed))) return parsed;
    } catch (const std::exception&) {
      // not a number, or out of range: reported below
    }
    throw std::runtime_error("option --" + std::string(name) + ": expected " + expected +
                             ", got '" + *v + "'");
  }

  /// The value given for `name` ("" for a flag), or nullptr when absent.
  const std::string* find(std::string_view name) const {
    const std::size_t k = option_index(name);
    if (k == kNumOptions) {
      throw std::logic_error("option --" + std::string(name) + " is not in kOptions");
    }
    return values_[k] ? &*values_[k] : nullptr;
  }

  std::array<std::optional<std::string>, kNumOptions> values_;
};

/// --tasks/--seed: the synthetic application every subcommand but `inspect`
/// works on.
struct AppId {
  std::size_t tasks;
  std::uint64_t seed;
};

AppId app_id(const Args& args) { return {args.integer("tasks", 20, 1), args.integer("seed", 1)}; }

/// Seed of the design-time flow of application seed `seed`.
std::uint64_t flow_seed(std::uint64_t seed) { return seed ^ 0xD5EULL; }

/// --pop/--gens/--jobs: the design-time flow of `explore` and of the inline
/// explore of `simulate`/`fleet`.
exp::FlowParams flow_params(const Args& args) {
  exp::FlowParams params;
  params.dse.base_ga.population = args.integer("pop", 64, 2);
  params.dse.base_ga.generations = args.integer("gens", 60, 1);
  // 0 = auto (std::thread::hardware_concurrency); the front is bit-for-bit
  // identical at any job count.
  params.dse.threads = args.integer("jobs", 0);
  return params;
}

/// The run-time policy and its environment, shared by `simulate` and `fleet`.
struct RuntimeOptions {
  std::string policy;
  exp::RuntimeEvalParams params;
};

/// --policy/--prefetch/--prc/--cycles/--fault-rate/--pe-mtbf/--qos-tolerance;
/// `default_cycles` is the horizon without --cycles.
RuntimeOptions runtime_options(const Args& args, double default_cycles) {
  RuntimeOptions out{args.str("policy", "ura"), {}};
  exp::RuntimeEvalParams& params = out.params;
  if (out.policy == "ura") params.kind = exp::PolicyKind::Ura;
  else if (out.policy == "aura") params.kind = exp::PolicyKind::Aura;
  else if (out.policy == "mdp") params.kind = exp::PolicyKind::Mdp;
  else if (out.policy == "baseline") params.kind = exp::PolicyKind::Baseline;
  else {
    throw std::runtime_error("option --policy: unknown policy '" + out.policy +
                             "' (use ura, aura, mdp or baseline)");
  }
  params.prefetch = args.has("prefetch");
  params.p_rc = args.real("prc", 0.5);
  if (params.p_rc < 0.0 || params.p_rc > 1.0) {
    throw std::runtime_error("option --prc: must be in [0, 1]");
  }
  params.sim.total_cycles = args.real("cycles", default_cycles);
  if (params.sim.total_cycles <= 0.0) {
    throw std::runtime_error("option --cycles: must be > 0");
  }
  // Run-time fault environment (off unless a rate is given). validate()
  // turns out-of-range values into the one-line error contract.
  params.faults.transient_rate = args.real("fault-rate", 0.0);
  params.faults.pe_mtbf = args.real("pe-mtbf", 0.0);
  params.faults.qos_tolerance = args.real("qos-tolerance", params.faults.qos_tolerance);
  params.faults.validate();
  return out;
}

/// What `simulate`, `fleet` and `validate` run on.
struct Design {
  std::unique_ptr<exp::AppInstance> app;
  dse::DesignDb db;
  /// The DrcMatrix a .clrdb stored; absent for JSON and inline explores.
  std::optional<rt::DrcMatrix> drc;
};

/// Read --db by content (JSON or .clrdb), or — without --db — run the
/// design-time flow inline. A database stores indices into the application's
/// implementation sets, which regenerate deterministically from
/// --tasks/--seed, so every stored point is re-evaluated on the rebuilt
/// application and must reproduce its stored metrics bit for bit: a database
/// explored for another application fails here, not with wrong numbers later.
Design load_design(const Args& args) {
  const AppId id = app_id(args);
  const exp::FlowParams params = flow_params(args);
  Design design;
  if (!args.has("db")) {
    design.app = exp::make_synthetic_app(id.tasks, id.seed);
    util::Rng flow_rng(flow_seed(id.seed));
    design.db = exp::run_design_flow(*design.app, params, flow_rng).red;
    std::printf("explored inline: %zu stored design points (pass --db to reuse a saved "
                "database)\n",
                design.db.size());
    return design;
  }
  const std::string path = args.str("db");
  io::LoadedDesignDb loaded = io::load_design_db(path);
  design.app = exp::make_synthetic_app_with_space(id.tasks, id.seed, std::move(loaded.space));
  design.db = std::move(loaded.db);
  design.drc = std::move(loaded.drc);

  const sched::CompiledGraph graph(design.app->context());
  sched::EvalScratch scratch;
  for (std::size_t i = 0; i < design.db.size(); ++i) {
    const dse::DesignPoint& p = design.db.point(i);
    std::string mismatch = "re-evaluates to other metrics than it stores";
    try {
      const sched::KernelMetrics m = graph.evaluate(p.config, scratch);
      if (m.makespan == p.makespan && m.energy == p.energy && m.func_rel == p.func_rel) continue;
    } catch (const std::invalid_argument& e) {
      mismatch = e.what();
    }
    throw std::runtime_error("--db " + path + " does not match the application of --tasks " +
                             std::to_string(id.tasks) + " --seed " + std::to_string(id.seed) +
                             " (stored point " + std::to_string(i) + ": " + mismatch +
                             "); pass the --tasks/--seed it was explored with");
  }
  return design;
}

/// Parse the shared checkpoint/budget flags into a SessionControl, validate
/// their dependencies (--resume and --checkpoint-every require --checkpoint),
/// check that the checkpoint can be written before any work (an inline
/// explore included) and arm the global stop source's deadline from
/// --time-budget.
exp::SessionControl session_control(const Args& args) {
  exp::SessionControl control;
  control.checkpoint_path = args.str("checkpoint");
  if (args.has("checkpoint-every") && !args.has("checkpoint")) {
    throw std::runtime_error("option --checkpoint-every requires --checkpoint");
  }
  control.checkpoint_every = args.integer("checkpoint-every", 1, 1);
  if (args.has("resume")) {
    if (!args.has("checkpoint")) throw std::runtime_error("option --resume requires --checkpoint");
    control.resume = true;
  }
  if (args.has("time-budget")) {
    const double seconds = args.real("time-budget", 0.0);
    if (seconds <= 0.0) throw std::runtime_error("option --time-budget: must be > 0 seconds");
    global_stop().set_deadline_after(seconds);
  }
  control.step_budget = args.integer("step-budget", 0);
  control.stop = global_stop().token();
  if (!control.checkpoint_path.empty()) {
    io::CheckpointStore(control.checkpoint_path).check_writable();
  }
  return control;
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
  std::uint32_t mask = trace::kAllCategories;
  try {
    mask = trace::parse_categories(args.str("trace-categories", "all"));
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("option --trace-categories: ") + e.what());
  }
  trace::Tracer::instance().enable(mask);
  return args.str("trace");
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

/// Report a run cut short (`progress` says how far it got) and return its
/// exit code.
int interrupted(util::StopReason reason, const std::string& progress,
                const exp::SessionControl& control, std::uint64_t checkpoints) {
  std::printf("interrupted (%s)%s", util::stop_reason_name(reason), progress.c_str());
  if (!control.checkpoint_path.empty()) {
    std::printf("; %llu checkpoint(s) written — rerun with --resume to continue",
                static_cast<unsigned long long>(checkpoints));
  }
  std::printf("\n");
  return kExitInterrupted;
}

int cmd_generate(const Args& args) {
  const AppId id = app_id(args);
  const auto app = exp::make_synthetic_app(id.tasks, id.seed);
  std::printf("generated %zu-task application (seed %llu): %zu edges, %zu PEs, CLR space %zu\n",
              id.tasks, static_cast<unsigned long long>(id.seed), app->graph().num_edges(),
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
    util::write_file(args.str("dot-out"),
                     sched::to_dot(app->graph(), sched::heft_seed(app->context())));
    std::printf("DOT (HEFT mapping overlay) written to %s\n", args.str("dot-out").c_str());
  }
  return 0;
}

int cmd_explore(const Args& args) {
  const AppId id = app_id(args);
  exp::FlowParams params = flow_params(args);
  if (args.has("csp")) params.mode = dse::ObjectiveMode::CspQos;
  const exp::SessionControl control = session_control(args);
  const std::string trace_path = setup_trace(args);
  const auto app = exp::make_synthetic_app(id.tasks, id.seed);

  util::install_stop_signal_handlers(global_stop());
  const auto outcome = exp::run_explore_session(*app, params, flow_seed(id.seed), control);
  const auto& flow = outcome.flow;
  if (outcome.resumed) {
    std::printf("resumed from checkpoint %s (.a/.b)\n", control.checkpoint_path.c_str());
  }
  std::printf("spec: Sapp <= %.2f, Fapp >= %.5f\nBaseD: %s\nReD:   %s\n", flow.spec.max_makespan,
              flow.spec.min_func_rel, flow.based.summary().c_str(), flow.red.summary().c_str());
  if (!outcome.complete) {
    // Partial report only; the database on disk stays the checkpoint, not a
    // half-built artifact that could be mistaken for the full result.
    const int code = interrupted(
        outcome.stop_reason, " after " + std::to_string(outcome.steps) + " generation boundaries",
        control, outcome.checkpoints_written);
    finish_trace(trace_path);
    return code;
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

const std::vector<std::string> kSimulateHeader = {
    "policy", "pRC", "cycles", "avg energy", "avg dRC/event", "#reconfigs", "QoS violations",
    "availability", "MTTR", "unrecovered"};

int cmd_simulate(const Args& args) {
  const RuntimeOptions runtime = runtime_options(args, 2e5);
  const exp::RuntimeEvalParams& params = runtime.params;
  const std::uint64_t sim_seed = args.integer("sim-seed", 7);
  const std::size_t replications = args.integer("replications", 1, 1);
  const bool replicated = replications > 1 || args.has("report");
  if (!replicated && (args.has("checkpoint") || args.has("resume") || args.has("time-budget") ||
                      args.has("step-budget") || args.has("checkpoint-every"))) {
    throw std::runtime_error(
        "simulate: --checkpoint/--resume/--time-budget/--step-budget need the replicated "
        "runner — pass --replications > 1 (or --report)");
  }
  const exp::SessionControl control = session_control(args);
  const std::string trace_path = setup_trace(args);
  const Design design = load_design(args);
  const dse::MetricRanges box = exp::db_qos_ranges(design.db);

  if (!replicated) {
    const auto stats =
        design.drc
            ? exp::evaluate_policy(*design.app, design.db, *design.drc, box, params, sim_seed)
            : exp::evaluate_policy(*design.app, design.db, box, params, sim_seed);
    util::TextTable table("simulation result");
    table.set_header(kSimulateHeader);
    table.add_row({runtime.policy, util::TextTable::fmt(params.p_rc, 2),
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
  config.jobs = args.integer("jobs", 0);
  exp::Runner runner(config);
  exp::RunnerCell cell;
  cell.app = design.app.get();
  cell.db = &design.db;
  if (design.drc) cell.drc = &*design.drc;
  cell.ranges = box;
  cell.params = params;
  cell.seed = sim_seed;
  cell.label = runtime.policy + " pRC=" + util::TextTable::fmt(params.p_rc, 2);
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
  table.set_header(kSimulateHeader);
  table.add_row({runtime.policy, util::TextTable::fmt(params.p_rc, 2),
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
  int code = 0;
  if (!session.run.complete) {
    code = interrupted(session.stop_reason,
                       ": " + std::to_string(session.run.jobs_done) + " of " +
                           std::to_string(session.run.jobs_total) + " replication jobs done",
                       control, session.checkpoints_written);
  }
  finish_trace(trace_path);
  return code;
}

int cmd_fleet(const Args& args) {
  fleet::FleetConfig config;
  config.devices = args.integer("devices", 100000);
  config.shards = args.integer("shards", 0);
  config.jobs = args.integer("jobs", 0);
  config.block_size = args.integer("block", 1024, 1);
  config.seed = args.integer("sim-seed", 7);
  // Shorter default horizon than `simulate` (2e4 vs 2e5 cycles): fleet runs
  // amortize statistical power across devices, not cycles.
  const RuntimeOptions runtime = runtime_options(args, 2e4);
  config.params = runtime.params;
  exp::RuntimeEvalParams& params = config.params;
  const exp::SessionControl control = session_control(args);
  Design design = load_design(args);
  if (!design.drc) {
    // No precomputed matrix in the artifact: rebuild it once, up front (the
    // pipeline itself never computes pairwise costs).
    recfg::ReconfigModel reconfig(design.app->platform(), design.app->impls());
    util::ThreadPool pool(config.jobs);
    design.drc.emplace(design.db, reconfig, &pool);
  }

  // Per-device fault environment mirrors exp::evaluate_policy: per-PE SER
  // profiles derived from the platform when injection is on.
  if (params.faults.enabled() && params.fault_profiles.empty()) {
    params.fault_profiles = flt::profiles_from_platform(design.app->platform());
  }
  config.ranges = exp::db_qos_ranges(design.db);

  util::install_stop_signal_handlers(global_stop());
  const fleet::FleetSessionOutcome outcome = fleet::run_fleet_session(
      design.db, *design.drc, &design.app->clr_space(), config, control);
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
  table.add_row({runtime.policy, util::TextTable::fmt(params.p_rc, 2),
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
  std::printf("throughput: %.0f devices/s (%llu block(s) in %.2f s, %zu worker thread(s))",
              result.devices_per_second,
              static_cast<unsigned long long>(result.blocks_done_this_run), result.wall_seconds,
              util::resolve_threads(config.jobs));
  // The split of the lookups depends on which worker ran which device, so
  // the counters ride the timing line.
  if (const rt::DecisionTable::Counters& t = result.decision_table; t.lookups > 0) {
    std::printf("; decision table: %llu lookups, %llu hits, %llu fills, %llu empty FEAS, "
                "%llu band ties, %zu bytes",
                static_cast<unsigned long long>(t.lookups),
                static_cast<unsigned long long>(t.hits),
                static_cast<unsigned long long>(t.fills),
                static_cast<unsigned long long>(t.empty),
                static_cast<unsigned long long>(t.band_ties), result.decision_table_bytes);
  }
  std::printf("\n");

  if (args.has("report")) {
    io::JsonArray shard_rows;
    for (const fleet::ShardSummary& sh : result.shards) {
      io::JsonObject row{
          {"shard", io::Json(static_cast<std::uint64_t>(sh.shard))},
          {"first_device", io::Json(sh.first_device)},
          {"num_devices", io::Json(sh.num_devices)},
          {"devices_done", io::Json(sh.totals.devices)},
      };
      fleet::for_each_block_stat([&](const char* name, auto member) {
        row.emplace_back(name, io::Json(sh.totals.*member));
      });
      shard_rows.push_back(io::Json(std::move(row)));
    }
    // Each count and the max as its fleet total, each sum as its per-device
    // mean, in FleetState order.
    io::JsonObject summary;
    for (const rt::Fold group : rt::kFoldOrder) {
#define CLR_SUMMARY_KEY(stat, fold, device, block, mean, replicated)                   \
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
        {"policy", io::Json(runtime.policy)},
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

  if (result.complete) return 0;
  return interrupted(outcome.stop_reason,
                     ": " + std::to_string(result.progress.blocks_done()) + " of " +
                         std::to_string(result.progress.done.size()) + " blocks done",
                     control, outcome.checkpoints_written);
}

int cmd_validate(const Args& args) {
  args.require("db");
  const std::size_t runs = args.integer("runs", 3000, 1);
  const std::size_t max_points = args.integer("points", 5, 1);
  util::Rng rng(args.integer("sim-seed", 11));
  const Design design = load_design(args);
  const sim::MonteCarloValidator validator(design.app->context());

  util::TextTable table("fault-injection validation (" + std::to_string(runs) + " runs/point)");
  table.set_header({"#", "S stored", "S empirical", "J stored", "J empirical", "F stored",
                    "F empirical"});
  for (std::size_t i = 0; i < std::min(max_points, design.db.size()); ++i) {
    // load_design() checked that the stored metrics are the analytical ones.
    const auto& p = design.db.point(i);
    const auto agg = validator.run_many(p.config, runs, rng);
    table.add_row({std::to_string(i), util::TextTable::fmt(p.makespan, 2),
                   util::TextTable::fmt(agg.makespan.mean(), 2),
                   util::TextTable::fmt(p.energy, 2),
                   util::TextTable::fmt(agg.energy.mean(), 2),
                   util::TextTable::fmt(p.func_rel, 5),
                   util::TextTable::fmt(agg.weighted_success.mean(), 5)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("empirical columns should track the stored/analytical ones closely; see\n"
              "tests/sim/test_fault_injection.cpp for the formal tolerances.\n");
  return 0;
}

int cmd_inspect(const Args& args) {
  args.require("db");
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

struct Subcommand {
  const char* name;
  Command command;
  int (*run)(const Args&);
  const char* note;  ///< extra usage line, or nullptr
};

constexpr Subcommand kSubcommands[] = {
    {"generate", kGenerate, cmd_generate, nullptr},
    {"explore", kExplore, cmd_explore, nullptr},
    {"simulate", kSimulate, cmd_simulate, "without --db the design-time flow runs inline first"},
    {"fleet", kFleet, cmd_fleet, "aggregates are bit-identical at any --shards/--jobs"},
    {"inspect", kInspect, cmd_inspect, "--db is required"},
    {"validate", kValidate, cmd_validate, "--db is required"},
};

/// Print the usage, generated from kSubcommands and kOptions, and return the
/// exit code of a missing or unknown subcommand.
int usage() {
  std::string names;
  for (const Subcommand& c : kSubcommands) {
    names += (names.empty() ? "" : "|") + std::string(c.name);
  }
  std::string text = "usage: clrtool <" + names + "> [options]\n";
  const std::string indent(11, ' ');
  for (const Subcommand& c : kSubcommands) {
    std::string line = "  " + std::string(c.name);
    line.resize(indent.size() - 1, ' ');
    for (const Option& o : kOptions) {
      if ((o.commands & c.command) == 0) continue;
      const std::string item =
          std::string(" [--") + o.name + (o.value ? std::string(" ") + o.value : "") + "]";
      if (line.size() + item.size() > 79) {
        text += line + "\n";
        line = indent.substr(1);
      }
      line += item;
    }
    text += line + "\n";
    if (c.note != nullptr) text += indent + "(" + c.note + ")\n";
  }
  text +=
      "--trace writes a Chrome trace_event JSON timeline (Perfetto /\n"
      "chrome://tracing) and prints a per-span summary; --trace-categories\n"
      "filters it to a comma list of dse,runtime,exp,drc,bench (default all).\n"
      "--checkpoint writes crash-safe A/B checkpoints (<F>.a/<F>.b) at generation\n"
      "or job-batch boundaries; --resume continues from the newest good one with\n"
      "bit-identical results. SIGINT/SIGTERM, --time-budget (wall-clock seconds)\n"
      "and --step-budget (boundaries) stop cooperatively: the partial report is\n"
      "printed, a final checkpoint written, and the exit code is 3.\n";
  std::fputs(text.c_str(), stderr);
  return 2;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  const auto* sub = std::find_if(std::begin(kSubcommands), std::end(kSubcommands),
                                 [&](const Subcommand& c) { return name == c.name; });
  if (sub == std::end(kSubcommands)) {
    std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    return usage();
  }
  try {
    return sub->run(Args(sub->command, argc, argv));
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
