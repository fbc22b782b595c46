// Session-layer checkpoint/resume tests (DESIGN.md §5.12): interrupted runs
// resume bit-identically, completed replication jobs never re-run, and
// mismatched parameters/grids are refused instead of silently diverging.

#include "experiments/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "experiments/app.hpp"
#include "io/checkpoint.hpp"

namespace clr::exp {
namespace {

namespace fs = std::filesystem;

// --- Explore fixtures --------------------------------------------------------

FlowParams small_flow_params() {
  FlowParams params;
  params.spec_samples = 16;
  params.dse.base_ga = {.population = 10, .generations = 5};
  params.dse.red_ga = {.population = 8, .generations = 4};
  params.dse.calibration_samples = 12;
  params.dse.max_red_seeds = 3;
  params.dse.max_base_points = 8;
  params.dse.threads = 1;
  return params;
}

void expect_db_equal(const dse::DesignDb& a, const dse::DesignDb& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.point(i).config, b.point(i).config) << what << " point " << i;
    EXPECT_DOUBLE_EQ(a.point(i).energy, b.point(i).energy) << what << " point " << i;
    EXPECT_DOUBLE_EQ(a.point(i).makespan, b.point(i).makespan) << what << " point " << i;
    EXPECT_DOUBLE_EQ(a.point(i).func_rel, b.point(i).func_rel) << what << " point " << i;
    EXPECT_EQ(a.point(i).extra, b.point(i).extra) << what << " point " << i;
  }
}

void expect_flow_equal(const FlowResult& a, const FlowResult& b) {
  EXPECT_DOUBLE_EQ(a.spec.max_makespan, b.spec.max_makespan);
  EXPECT_DOUBLE_EQ(a.spec.min_func_rel, b.spec.min_func_rel);
  expect_db_equal(a.based, b.based, "based");
  expect_db_equal(a.red, b.red, "red");
}

class SessionTempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("clr_session_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

// --- Explore sessions --------------------------------------------------------

TEST_F(SessionTempDir, ExploreBudgetStopThenResumeMatchesUninterrupted) {
  const auto app = make_synthetic_app(7, 11);
  const FlowParams params = small_flow_params();
  const std::uint64_t seed = 77;

  // Reference: one uninterrupted run, no checkpointing at all.
  SessionControl plain;
  const ExploreOutcome full = run_explore_session(*app, params, seed, plain);
  ASSERT_TRUE(full.complete);
  ASSERT_FALSE(full.flow.red.empty());

  // Interrupted: stop after a few boundaries, then resume repeatedly until
  // done. Every leg shares one command line (resume + checkpoint path).
  SessionControl control;
  control.checkpoint_path = path("explore.clrdb");
  control.checkpoint_every = 1;
  control.resume = true;
  control.step_budget = 3;

  ExploreOutcome out = run_explore_session(*app, params, seed, control);
  EXPECT_FALSE(out.complete);
  EXPECT_FALSE(out.resumed);  // first leg starts fresh despite --resume
  EXPECT_EQ(out.stop_reason, util::StopReason::Budget);
  EXPECT_GT(out.checkpoints_written, 0u);

  int legs = 0;
  while (!out.complete) {
    ASSERT_LT(++legs, 64) << "resume loop failed to converge";
    out = run_explore_session(*app, params, seed, control);
    EXPECT_TRUE(out.resumed);
  }
  EXPECT_EQ(out.stop_reason, util::StopReason::None);
  expect_flow_equal(full.flow, out.flow);
}

TEST_F(SessionTempDir, ExploreResumeAcrossThreadCountsMatches) {
  const auto app = make_synthetic_app(7, 11);
  FlowParams params = small_flow_params();
  const std::uint64_t seed = 78;

  SessionControl plain;
  const ExploreOutcome full = run_explore_session(*app, params, seed, plain);
  ASSERT_TRUE(full.complete);

  // Interrupt at --jobs 4, finish at --jobs 1: the checkpoint carries no
  // thread-count residue (hash excludes it; results are thread-invariant).
  SessionControl control;
  control.checkpoint_path = path("explore.clrdb");
  control.resume = true;
  control.step_budget = 4;
  params.dse.threads = 4;
  ExploreOutcome out = run_explore_session(*app, params, seed, control);
  ASSERT_FALSE(out.complete);

  params.dse.threads = 1;
  control.step_budget = 0;
  out = run_explore_session(*app, params, seed, control);
  ASSERT_TRUE(out.complete);
  EXPECT_TRUE(out.resumed);
  expect_flow_equal(full.flow, out.flow);
}

TEST_F(SessionTempDir, ExploreParamMismatchIsRefused) {
  const auto app = make_synthetic_app(7, 11);
  FlowParams params = small_flow_params();

  SessionControl control;
  control.checkpoint_path = path("explore.clrdb");
  control.resume = true;
  control.step_budget = 2;
  ASSERT_FALSE(run_explore_session(*app, params, 77, control).complete);

  // Same checkpoint, different generations budget: refuse, don't diverge.
  params.dse.base_ga.generations = 6;
  control.step_budget = 0;
  EXPECT_THROW(run_explore_session(*app, params, 77, control), std::runtime_error);
  // A different seed is just as much a different run.
  params.dse.base_ga.generations = 5;
  EXPECT_THROW(run_explore_session(*app, params, 78, control), std::runtime_error);
}

TEST_F(SessionTempDir, ExploreResumeWithNoCheckpointStartsFresh) {
  const auto app = make_synthetic_app(7, 11);
  SessionControl control;
  control.checkpoint_path = path("never_written.clrdb");
  control.resume = true;
  const ExploreOutcome out = run_explore_session(*app, small_flow_params(), 77, control);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.resumed);
}

TEST(Session, ControlValidation) {
  const auto app = make_synthetic_app(7, 11);
  SessionControl control;
  control.checkpoint_every = 0;
  EXPECT_THROW(run_explore_session(*app, small_flow_params(), 1, control),
               std::invalid_argument);
  control.checkpoint_every = 1;
  control.resume = true;  // resume without a checkpoint path
  EXPECT_THROW(run_explore_session(*app, small_flow_params(), 1, control),
               std::invalid_argument);
}

TEST(Session, ParamHashTracksResultAffectingKnobsOnly) {
  const auto app = make_synthetic_app(7, 11);
  FlowParams params = small_flow_params();
  const std::uint64_t base = explore_param_hash(*app, params, 77);
  EXPECT_EQ(explore_param_hash(*app, params, 77), base);
  EXPECT_NE(explore_param_hash(*app, params, 78), base);

  FlowParams other = params;
  other.dse.base_ga.generations += 1;
  EXPECT_NE(explore_param_hash(*app, other, 77), base);

  // Pure performance knobs must not invalidate a checkpoint.
  other = params;
  other.dse.threads = 8;
  other.dse.base_ga.threads = 8;
  other.dse.batched_eval = !other.dse.batched_eval;
  EXPECT_EQ(explore_param_hash(*app, other, 77), base);
}

// --- Runner fixtures ---------------------------------------------------------

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
  return rt::DrcMatrix(3, {0, 10, 2, 10, 0, 10, 2, 10, 0});
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

void add_grid(Runner& runner, const dse::DesignDb& db, const rt::DrcMatrix& drc) {
  for (const PolicyKind kind : {PolicyKind::Baseline, PolicyKind::Ura}) {
    RunnerCell cell;
    cell.db = &db;
    cell.drc = &drc;
    cell.ranges = make_ranges();
    cell.params.kind = kind;
    cell.params.p_rc = 0.3;
    cell.params.sim.total_cycles = 2e4;
    cell.seed = 42 + static_cast<std::uint64_t>(kind);
    cell.label = std::string("cell_") + std::to_string(static_cast<int>(kind));
    runner.add_cell(cell);
  }
}

/// The ISSUE 10 grid: every policy kind (including the tabular MDP policy),
/// with the MDP cell additionally running under speculative prefetch.
void add_policy_grid(Runner& runner, const dse::DesignDb& db, const rt::DrcMatrix& drc) {
  for (const PolicyKind kind :
       {PolicyKind::Baseline, PolicyKind::Ura, PolicyKind::Aura, PolicyKind::Mdp}) {
    RunnerCell cell;
    cell.db = &db;
    cell.drc = &drc;
    cell.ranges = make_ranges();
    cell.params.kind = kind;
    cell.params.p_rc = 0.3;
    cell.params.sim.total_cycles = 2e4;
    cell.params.mdp.makespan_bins = 4;
    cell.params.mdp.func_rel_bins = 4;
    cell.params.prefetch = (kind == PolicyKind::Mdp);
    cell.seed = 42 + static_cast<std::uint64_t>(kind);
    cell.label = std::string("cell_") + std::to_string(static_cast<int>(kind));
    runner.add_cell(cell);
  }
}

void expect_results_equal(const std::vector<CellResult>& a, const std::vector<CellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].stats, b[i].stats) << "cell " << i;
  }
}

// --- Runner sessions ---------------------------------------------------------

TEST_F(SessionTempDir, RunnerBudgetStopThenResumeMatchesUninterrupted) {
  const auto db = make_db();
  const auto drc = make_drc();

  RunnerConfig config;
  config.replications = 4;
  config.jobs = 1;
  Runner full_runner(config);
  add_grid(full_runner, db, drc);
  const std::vector<CellResult> full = full_runner.run();

  // Interrupt after 3 single-job waves at jobs=8, resume to completion at
  // jobs=1: aggregation must be bit-identical to the uninterrupted run.
  SessionControl control;
  control.checkpoint_path = path("grid.clrdb");
  control.checkpoint_every = 1;
  control.resume = true;
  control.step_budget = 3;

  RunnerConfig wide = config;
  wide.jobs = 8;
  Runner first(wide);
  add_grid(first, db, drc);
  RunnerOutcome out = run_runner_session(first, control);
  EXPECT_FALSE(out.run.complete);
  EXPECT_FALSE(out.resumed);
  EXPECT_EQ(out.stop_reason, util::StopReason::Budget);
  EXPECT_LT(out.run.jobs_done, out.run.jobs_total);
  EXPECT_GT(out.run.jobs_done, 0u);

  control.step_budget = 0;
  Runner second(config);
  add_grid(second, db, drc);
  const RunnerOutcome resumed = run_runner_session(second, control);
  ASSERT_TRUE(resumed.run.complete);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.run.jobs_done, resumed.run.jobs_total);
  expect_results_equal(full, resumed.run.results);
}

TEST_F(SessionTempDir, RunnerResumeNeverRerunsCompletedJobs) {
  const auto db = make_db();
  const auto drc = make_drc();

  RunnerConfig config;
  config.replications = 5;
  config.jobs = 1;

  SessionControl control;
  control.checkpoint_path = path("grid.clrdb");
  control.resume = true;
  control.step_budget = 4;

  Runner first(config);
  add_grid(first, db, drc);
  const RunnerOutcome out = run_runner_session(first, control);
  ASSERT_FALSE(out.run.complete);
  const std::size_t done_first = out.run.jobs_done;
  EXPECT_EQ(first.metrics().counter("runner.jobs").value(), done_first);

  control.step_budget = 0;
  Runner second(config);
  add_grid(second, db, drc);
  const RunnerOutcome resumed = run_runner_session(second, control);
  ASSERT_TRUE(resumed.run.complete);
  // The second runner must execute exactly the leftover jobs — replication
  // cells completed before the interrupt are never re-simulated.
  EXPECT_EQ(second.metrics().counter("runner.jobs").value(),
            resumed.run.jobs_total - done_first);
}

TEST_F(SessionTempDir, RunnerGridMismatchIsRefused) {
  const auto db = make_db();
  const auto drc = make_drc();

  RunnerConfig config;
  config.replications = 3;
  config.jobs = 1;

  SessionControl control;
  control.checkpoint_path = path("grid.clrdb");
  control.resume = true;
  control.step_budget = 2;
  Runner first(config);
  add_grid(first, db, drc);
  ASSERT_FALSE(run_runner_session(first, control).run.complete);

  // Different replication count => different grid.
  control.step_budget = 0;
  RunnerConfig other = config;
  other.replications = 4;
  Runner second(other);
  add_grid(second, db, drc);
  EXPECT_THROW(run_runner_session(second, control), std::runtime_error);
}

TEST(Session, GridHashIgnoresJobsButTracksTheGrid) {
  const auto db = make_db();
  const auto drc = make_drc();

  RunnerConfig config;
  config.replications = 3;
  Runner a(config);
  add_grid(a, db, drc);

  RunnerConfig wide = config;
  wide.jobs = 8;
  Runner b(wide);
  add_grid(b, db, drc);
  EXPECT_EQ(a.grid_hash(), b.grid_hash());

  RunnerConfig more = config;
  more.replications = 4;
  Runner c(more);
  add_grid(c, db, drc);
  EXPECT_NE(a.grid_hash(), c.grid_hash());

  Runner d(config);
  add_grid(d, db, drc);
  RunnerCell extra;
  extra.db = &db;
  extra.drc = &drc;
  extra.ranges = make_ranges();
  extra.params.kind = PolicyKind::Aura;
  extra.params.sim.total_cycles = 2e4;
  extra.seed = 7;
  d.add_cell(extra);
  EXPECT_NE(a.grid_hash(), d.grid_hash());
}

TEST_F(SessionTempDir, RunnerMdpPrefetchGridResumesBitIdentically) {
  // The full policy grid — baseline, uRA, AuRA and the tabular MDP policy
  // (the latter under prefetch) — interrupted at jobs=8 and finished at
  // jobs=1 must aggregate bit-identically to one uninterrupted run.
  const auto db = make_db();
  const auto drc = make_drc();

  RunnerConfig config;
  config.replications = 4;
  config.jobs = 1;
  Runner full_runner(config);
  add_policy_grid(full_runner, db, drc);
  const std::vector<CellResult> full = full_runner.run();

  SessionControl control;
  control.checkpoint_path = path("grid.clrdb");
  control.checkpoint_every = 1;
  control.resume = true;
  control.step_budget = 3;

  RunnerConfig wide = config;
  wide.jobs = 8;
  Runner first(wide);
  add_policy_grid(first, db, drc);
  RunnerOutcome out = run_runner_session(first, control);
  EXPECT_FALSE(out.run.complete);

  control.step_budget = 0;
  Runner second(config);
  add_policy_grid(second, db, drc);
  const RunnerOutcome resumed = run_runner_session(second, control);
  ASSERT_TRUE(resumed.run.complete);
  EXPECT_TRUE(resumed.resumed);
  expect_results_equal(full, resumed.run.results);
}

TEST(Session, GridHashTracksPolicyAndPrefetchOnlyWhenActive) {
  // Mirror of the fleet param-hash rule at the Runner-grid layer: a prefetch
  // toggle or an MDP-knob change on an MDP cell must fence a checkpoint,
  // while MDP knobs on non-MDP cells stay hash-invisible — so every pre-PR
  // grid checkpoint keeps loading against the identical grid.
  const auto db = make_db();
  const auto drc = make_drc();

  RunnerConfig config;
  config.replications = 3;

  auto hash_with = [&](auto mutate) {
    Runner runner(config);
    for (const PolicyKind kind : {PolicyKind::Baseline, PolicyKind::Ura}) {
      RunnerCell cell;
      cell.db = &db;
      cell.drc = &drc;
      cell.ranges = make_ranges();
      cell.params.kind = kind;
      cell.params.sim.total_cycles = 2e4;
      cell.seed = 7;
      mutate(cell);
      runner.add_cell(cell);
    }
    return runner.grid_hash();
  };

  const std::uint64_t base = hash_with([](RunnerCell&) {});
  EXPECT_EQ(base, hash_with([](RunnerCell& cell) {
              // Inactive knobs: MDP planning parameters under non-MDP policies.
              cell.params.mdp.gamma = 0.5;
              cell.params.mdp.makespan_bins = 3;
              cell.params.prefetch_params.min_observations = 99;
            }));
  EXPECT_NE(base, hash_with([](RunnerCell& cell) { cell.params.prefetch = true; }));

  const std::uint64_t mdp =
      hash_with([](RunnerCell& cell) { cell.params.kind = PolicyKind::Mdp; });
  EXPECT_NE(base, mdp);
  EXPECT_NE(mdp, hash_with([](RunnerCell& cell) {
              cell.params.kind = PolicyKind::Mdp;
              cell.params.mdp.gamma = 0.5;
            }));
}

TEST_F(SessionTempDir, ExternalStopIsForwardedAndReported) {
  const auto db = make_db();
  const auto drc = make_drc();
  RunnerConfig config;
  config.replications = 3;
  config.jobs = 1;
  Runner runner(config);
  add_grid(runner, db, drc);

  util::StopSource source;
  source.request_stop(util::StopReason::Signal);
  SessionControl control;
  control.stop = source.token();
  control.checkpoint_path = path("grid.clrdb");
  const RunnerOutcome out = run_runner_session(runner, control);
  EXPECT_FALSE(out.run.complete);
  EXPECT_EQ(out.stop_reason, util::StopReason::Signal);
}

}  // namespace
}  // namespace clr::exp
