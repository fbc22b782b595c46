#include "experiments/runner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace clr::exp {
namespace {

// Small fixture mirroring the runtime policy tests: 3 stored points with an
// explicit cost table, so no design-time flow (and no AppInstance) is needed.
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

RunnerCell make_cell(const dse::DesignDb& db, const rt::DrcMatrix& drc, PolicyKind kind,
                     double p_rc, std::uint64_t seed) {
  RunnerCell cell;
  cell.db = &db;
  cell.drc = &drc;
  cell.ranges = make_ranges();
  cell.params.kind = kind;
  cell.params.p_rc = p_rc;
  cell.params.sim.total_cycles = 2e4;
  cell.seed = seed;
  return cell;
}

TEST(ReplicationSeed, DeterministicAndDecorrelated) {
  std::set<std::uint64_t> seen;
  for (std::size_t rep = 0; rep < 64; ++rep) {
    const auto s = util::substream_seed(42, rep);
    EXPECT_EQ(s, util::substream_seed(42, rep));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 64u);  // all distinct
  EXPECT_NE(util::substream_seed(42, 0), util::substream_seed(43, 0));
}

TEST(ReplicateStats, SummarizesEveryField) {
  rt::RuntimeStats a;
  a.num_events = 10;
  a.num_reconfigs = 4;
  a.num_infeasible_events = 1;
  a.avg_energy = 50.0;
  a.total_reconfig_cost = 100.0;
  a.avg_reconfig_cost = 10.0;
  a.max_drc = 30.0;
  rt::RuntimeStats b = a;
  b.num_events = 20;
  b.avg_energy = 70.0;
  const auto s = replicate_stats({a, b});
  EXPECT_EQ(s.replications, 2u);
  EXPECT_DOUBLE_EQ(s.num_events.mean, 15.0);
  EXPECT_DOUBLE_EQ(s.num_events.min, 10.0);
  EXPECT_DOUBLE_EQ(s.num_events.max, 20.0);
  EXPECT_DOUBLE_EQ(s.avg_energy.mean, 60.0);
  EXPECT_GT(s.avg_energy.ci95, 0.0);
  EXPECT_DOUBLE_EQ(s.num_reconfigs.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.num_reconfigs.ci95, 0.0);  // identical samples
  EXPECT_DOUBLE_EQ(s.max_drc.mean, 30.0);
}

TEST(Runner, AddCellValidatesInputs) {
  const auto db = make_db();
  const auto drc = make_drc();
  Runner runner;
  RunnerCell no_db;
  no_db.drc = &drc;
  EXPECT_THROW(runner.add_cell(no_db), std::invalid_argument);
  RunnerCell no_source;
  no_source.db = &db;
  EXPECT_THROW(runner.add_cell(no_source), std::invalid_argument);
  const rt::DrcMatrix wrong_size(2, {0, 1, 1, 0});
  RunnerCell mismatched;
  mismatched.db = &db;
  mismatched.drc = &wrong_size;
  EXPECT_THROW(runner.add_cell(mismatched), std::invalid_argument);
}

TEST(Runner, BitForBitIdenticalAcrossJobCounts) {
  // The §5.6 determinism contract, extended to the runtime harness: the same
  // grid must produce byte-identical replication results at any worker count.
  const auto db = make_db();
  const auto drc = make_drc();
  const auto run_with_jobs = [&](std::size_t jobs) {
    RunnerConfig config;
    config.replications = 4;
    config.jobs = jobs;
    config.keep_runs = true;
    Runner runner(config);
    runner.add_cell(make_cell(db, drc, PolicyKind::Ura, 0.5, 111));
    runner.add_cell(make_cell(db, drc, PolicyKind::Aura, 0.3, 222));
    runner.add_cell(make_cell(db, drc, PolicyKind::Baseline, 0.0, 333));
    return runner.run();
  };
  const auto serial = run_with_jobs(1);
  const auto parallel4 = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel4.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    ASSERT_EQ(serial[c].runs.size(), parallel4[c].runs.size());
    for (std::size_t r = 0; r < serial[c].runs.size(); ++r) {
      const auto& a = serial[c].runs[r];
      const auto& b = parallel4[c].runs[r];
      EXPECT_EQ(a.num_events, b.num_events);
      EXPECT_EQ(a.num_reconfigs, b.num_reconfigs);
      EXPECT_EQ(a.num_infeasible_events, b.num_infeasible_events);
      EXPECT_DOUBLE_EQ(a.avg_energy, b.avg_energy);
      EXPECT_DOUBLE_EQ(a.total_reconfig_cost, b.total_reconfig_cost);
      EXPECT_DOUBLE_EQ(a.avg_reconfig_cost, b.avg_reconfig_cost);
      EXPECT_DOUBLE_EQ(a.max_drc, b.max_drc);
    }
    EXPECT_DOUBLE_EQ(serial[c].stats.avg_energy.mean, parallel4[c].stats.avg_energy.mean);
    EXPECT_DOUBLE_EQ(serial[c].stats.avg_energy.ci95, parallel4[c].stats.avg_energy.ci95);
  }
}

TEST(Runner, ReplicationsActuallyDiffer) {
  const auto db = make_db();
  const auto drc = make_drc();
  RunnerConfig config;
  config.replications = 3;
  config.keep_runs = true;
  Runner runner(config);
  runner.add_cell(make_cell(db, drc, PolicyKind::Ura, 0.5, 7));
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].runs.size(), 3u);
  // Different derived seeds -> different event sequences (overwhelmingly).
  EXPECT_NE(results[0].runs[0].avg_energy, results[0].runs[1].avg_energy);
  EXPECT_EQ(results[0].stats.replications, 3u);
}

TEST(Runner, KeepRunsOffDropsRawRuns) {
  const auto db = make_db();
  const auto drc = make_drc();
  RunnerConfig config;
  config.replications = 2;
  Runner runner(config);
  runner.add_cell(make_cell(db, drc, PolicyKind::Ura, 0.5, 7));
  const auto results = runner.run();
  EXPECT_TRUE(results[0].runs.empty());
  EXPECT_EQ(results[0].stats.replications, 2u);
}

TEST(Runner, MetricsCountJobs) {
  const auto db = make_db();
  const auto drc = make_drc();
  RunnerConfig config;
  config.replications = 3;
  Runner runner(config);
  runner.add_cell(make_cell(db, drc, PolicyKind::Ura, 0.5, 7));
  runner.add_cell(make_cell(db, drc, PolicyKind::Ura, 1.0, 8));
  runner.run();
  EXPECT_EQ(runner.metrics().counter("runner.cells").value(), 2u);
  EXPECT_EQ(runner.metrics().counter("runner.jobs").value(), 6u);
  // Explicit-drc cells never trigger matrix builds.
  EXPECT_EQ(runner.metrics().counter("runner.drc_builds").value(), 0u);
}

TEST(Runner, DrcMatrixBuiltOncePerDatabase) {
  // With an AppInstance source, all cells over the same (app, db) pair share
  // one memoized cost matrix — the acceptance criterion for grid sweeps.
  const auto app = make_synthetic_app(6, 123);
  dse::DesignDb db;
  const auto n = app->graph().num_tasks();
  for (int tag = 0; tag < 3; ++tag) {
    dse::DesignPoint p;
    p.makespan = 100.0 + tag;
    p.func_rel = 0.9;
    p.energy = 50.0 + tag;
    p.config.tasks.resize(n);
    for (auto& t : p.config.tasks) t.priority = tag;
    db.add(p);
  }
  dse::MetricRanges ranges = make_ranges();
  RunnerConfig config;
  config.replications = 2;
  Runner runner(config);
  for (double prc : {0.0, 0.5, 1.0}) {
    RunnerCell cell;
    cell.app = app.get();
    cell.db = &db;
    cell.ranges = ranges;
    cell.params.kind = PolicyKind::Ura;
    cell.params.p_rc = prc;
    cell.params.sim.total_cycles = 5e3;
    cell.seed = 9;
    runner.add_cell(cell);
  }
  runner.run();
  EXPECT_EQ(runner.metrics().counter("runner.drc_builds").value(), 1u);
  EXPECT_EQ(runner.metrics().counter("runner.drc_cache_hits").value(), 2u);
}

TEST(Runner, SolvesEachMdpCellOnce) {
  // Two MDP cells × three replications: one offline solve per cell, shared
  // by its replications, with the stats of jobs that each solve their own.
  const auto db = make_db();
  const auto drc = make_drc();
  RunnerConfig config;
  config.replications = 3;
  config.jobs = 2;
  Runner runner(config);
  std::vector<RunnerCell> cells;
  for (const double p_rc : {0.3, 0.8}) {
    RunnerCell cell = make_cell(db, drc, PolicyKind::Mdp, p_rc, 11);
    cell.params.mdp.makespan_bins = 3;
    cell.params.mdp.func_rel_bins = 3;
    cells.push_back(cell);
    runner.add_cell(cell);
  }
  const std::vector<CellResult> results = runner.run();
  EXPECT_EQ(runner.metrics().counter("runner.mdp_solves").value(), 2u);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<rt::RuntimeStats> runs;
    for (std::size_t r = 0; r < config.replications; ++r) {
      runs.push_back(evaluate_policy_with(db, drc, cells[c].ranges, cells[c].params,
                                          util::substream_seed(cells[c].seed, r)));
    }
    EXPECT_EQ(results[c].stats, replicate_stats(runs)) << "cell " << c;
  }

  // A grid without MDP cells reports no solve counter, as before.
  Runner ura(config);
  ura.add_cell(make_cell(db, drc, PolicyKind::Ura, 0.5, 11));
  ura.run();
  for (const auto& counter : ura.metrics().counters()) EXPECT_NE(counter.name, "runner.mdp_solves");
}

TEST(GridReport, ContainsCellsAndSummaries) {
  const auto db = make_db();
  const auto drc = make_drc();
  RunnerConfig config;
  config.replications = 2;
  Runner runner(config);
  auto cell = make_cell(db, drc, PolicyKind::Ura, 0.25, 5);
  cell.label = "probe-cell";
  runner.add_cell(cell);
  const auto results = runner.run();
  const auto report = grid_report("unit-grid", config, results, &runner.metrics());
  const std::string text = report.dump(0);
  EXPECT_NE(text.find("\"experiment\""), std::string::npos);
  EXPECT_NE(text.find("unit-grid"), std::string::npos);
  EXPECT_NE(text.find("probe-cell"), std::string::npos);
  EXPECT_NE(text.find("\"policy\""), std::string::npos);
  EXPECT_NE(text.find("\"avg_energy\""), std::string::npos);
  EXPECT_NE(text.find("\"ci95\""), std::string::npos);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("runner.jobs"), std::string::npos);
}

}  // namespace
}  // namespace clr::exp
