// Satellite of the tracing tentpole: the tracer only observes. A traced
// exp::Runner grid must produce bit-for-bit the results of an untraced one,
// at any worker count — tracing draws nothing from any Rng, reorders no
// work, and grid reports (modulo wall-clock fields) stay byte-identical. The
// same holds for the offline MDP solve and its `rt.mdp_solve` span.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/runner.hpp"
#include "runtime/mdp_policy.hpp"
#include "trace/trace.hpp"

namespace clr::exp {
namespace {

dse::DesignDb make_db() {
  dse::DesignDb db;
  auto add = [&](double s, double f, double j, int tag) {
    dse::DesignPoint p;
    p.makespan = s;
    p.func_rel = f;
    p.energy = j;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = tag;
    db.add(p);
  };
  add(100, 0.95, 50, 0);
  add(120, 0.99, 80, 1);
  add(80, 0.92, 30, 2);
  return db;
}

rt::DrcMatrix make_drc() {
  return rt::DrcMatrix(3, {0, 10, 2,
                           10, 0, 10,
                           2, 10, 0});
}

dse::MetricRanges make_ranges() {
  dse::MetricRanges r;
  r.makespan_min = 80.0;
  r.makespan_max = 120.0;
  r.func_rel_min = 0.92;
  r.func_rel_max = 0.99;
  r.energy_min = 30.0;
  r.energy_max = 80.0;
  return r;
}

struct GridOutput {
  std::vector<CellResult> results;
  std::string report;  ///< grid_report JSON with wall-clock fields zeroed
};

/// Run the smoke grid (one fault-free cell, one cell with transient +
/// permanent faults) with tracing on or off.
GridOutput run_grid(const dse::DesignDb& db, const rt::DrcMatrix& drc, std::size_t jobs,
                    bool traced) {
  auto& tracer = trace::Tracer::instance();
  if (traced) {
    tracer.enable();
  } else {
    tracer.disable();
  }

  RunnerConfig config;
  config.replications = 3;
  config.jobs = jobs;
  config.keep_runs = true;
  Runner runner(config);

  RunnerCell clean;
  clean.db = &db;
  clean.drc = &drc;
  clean.ranges = make_ranges();
  clean.params.kind = PolicyKind::Ura;
  clean.params.p_rc = 0.5;
  clean.params.sim.total_cycles = 2e4;
  clean.seed = 111;
  clean.label = "clean";
  runner.add_cell(clean);

  RunnerCell faulted = clean;
  faulted.params.kind = PolicyKind::Aura;
  faulted.params.faults.transient_rate = 5e-4;
  faulted.params.faults.pe_mtbf = 4e4;
  faulted.seed = 222;
  faulted.label = "faulted";
  runner.add_cell(faulted);

  GridOutput out;
  out.results = runner.run();

  if (traced) {
    tracer.disable();
    tracer.clear();
  }

  // wall_ms is the one legitimately non-deterministic field; metrics carry
  // timers; the report header echoes the worker count. Normalize all three,
  // then the report must be byte-identical.
  for (auto& res : out.results) res.wall_ms = 0.0;
  RunnerConfig canonical = config;
  canonical.jobs = 0;
  out.report = grid_report("trace-determinism", canonical, out.results, nullptr).dump(0);
  return out;
}

void expect_identical(const GridOutput& a, const GridOutput& b, const char* what) {
  ASSERT_EQ(a.results.size(), b.results.size()) << what;
  for (std::size_t c = 0; c < a.results.size(); ++c) {
    ASSERT_EQ(a.results[c].runs.size(), b.results[c].runs.size()) << what;
    for (std::size_t r = 0; r < a.results[c].runs.size(); ++r) {
      const auto& x = a.results[c].runs[r];
      const auto& y = b.results[c].runs[r];
      EXPECT_EQ(x.num_events, y.num_events) << what << " cell " << c << " rep " << r;
      EXPECT_EQ(x.num_reconfigs, y.num_reconfigs) << what;
      EXPECT_EQ(x.num_infeasible_events, y.num_infeasible_events) << what;
      EXPECT_EQ(x.num_transient_faults, y.num_transient_faults) << what;
      EXPECT_EQ(x.num_permanent_faults, y.num_permanent_faults) << what;
      EXPECT_EQ(x.num_unrecovered_failures, y.num_unrecovered_failures) << what;
      EXPECT_EQ(x.num_evacuations, y.num_evacuations) << what;
      EXPECT_EQ(x.num_safe_mode_entries, y.num_safe_mode_entries) << what;
      EXPECT_EQ(x.avg_energy, y.avg_energy) << what;
      EXPECT_EQ(x.total_reconfig_cost, y.total_reconfig_cost) << what;
      EXPECT_EQ(x.max_drc, y.max_drc) << what;
      EXPECT_EQ(x.qos_violation_time, y.qos_violation_time) << what;
      EXPECT_EQ(x.downtime, y.downtime) << what;
      EXPECT_EQ(x.availability, y.availability) << what;
      EXPECT_EQ(x.mttr, y.mttr) << what;
    }
  }
  EXPECT_EQ(a.report, b.report) << what << ": grid reports must be byte-identical";
}

TEST(TraceDeterminism, TracedRunsAreBitIdenticalToUntracedAtAnyJobCount) {
  const auto db = make_db();
  const auto drc = make_drc();
  const auto untraced1 = run_grid(db, drc, 1, false);
  const auto traced1 = run_grid(db, drc, 1, true);
  const auto untraced8 = run_grid(db, drc, 8, false);
  const auto traced8 = run_grid(db, drc, 8, true);
  expect_identical(untraced1, traced1, "jobs=1 traced vs untraced");
  expect_identical(untraced1, untraced8, "untraced jobs=1 vs jobs=8");
  expect_identical(untraced1, traced8, "jobs=8 traced vs untraced jobs=1");
}

TEST(TraceDeterminism, TracedRunActuallyRecordsSpans) {
  // Guard against the vacuous pass: the traced grid above must really have
  // been recording (cell spans + runtime instants), otherwise the bit-for-bit
  // comparison proves nothing.
  const auto db = make_db();
  const auto drc = make_drc();
  auto& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.enable();
  RunnerConfig config;
  config.replications = 2;
  config.jobs = 2;
  Runner runner(config);
  RunnerCell cell;
  cell.db = &db;
  cell.drc = &drc;
  cell.ranges = make_ranges();
  cell.params.kind = PolicyKind::Ura;
  cell.params.p_rc = 0.5;
  cell.params.sim.total_cycles = 1e4;
  cell.params.faults.transient_rate = 5e-4;
  cell.seed = 42;
  runner.add_cell(cell);
  runner.run();
  tracer.disable();

  bool saw_cell = false, saw_run = false, saw_qos = false;
  for (const auto& ev : tracer.collect()) {
    if (ev.name == "exp.cell") saw_cell = true;
    if (ev.name == "rt.run") saw_run = true;
    if (ev.name == "rt.qos_event") saw_qos = true;
  }
  tracer.clear();
  EXPECT_TRUE(saw_cell);
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_qos);
}

TEST(TraceDeterminism, TracedMdpSolveEqualsUntracedAndRecordsItsTelemetry) {
  const auto db = make_db();
  const auto drc = make_drc();
  const rt::QosProcessParams qos;
  flt::FaultParams faults;
  faults.transient_rate = 5e-4;
  faults.pe_mtbf = 4e4;
  auto& tracer = trace::Tracer::instance();
  tracer.disable();
  const rt::MdpTable untraced = rt::build_mdp_table(db, drc, make_ranges(), 0.5, qos, faults);
  tracer.clear();
  tracer.enable();
  const rt::MdpTable traced = rt::build_mdp_table(db, drc, make_ranges(), 0.5, qos, faults);
  tracer.disable();
  EXPECT_EQ(traced, untraced);

  std::vector<trace::Event> solves;
  for (const auto& ev : tracer.collect()) {
    if (ev.name == "rt.mdp_solve") solves.push_back(ev);
  }
  tracer.clear();
  ASSERT_EQ(solves.size(), 1u);
  EXPECT_EQ(solves[0].category, trace::Category::Runtime);
  std::string args;
  for (const auto& arg : solves[0].args) args += arg.key + "=" + arg.value + " ";
  // 6 x 6 bins x 3 points; rows are shared per (bin, action).
  for (const char* expected : {"states=108 ", "actions=3 ", "rows=108 ", "converged=true ",
                               "pi_fallback=false "}) {
    EXPECT_NE(args.find(expected), std::string::npos) << expected << " in " << args;
  }
  for (const char* key : {"sweeps=", "residual=", "rows_summed="}) {
    EXPECT_NE(args.find(key), std::string::npos) << key << " in " << args;
  }
}

}  // namespace
}  // namespace clr::exp
