// Fleet determinism proofs (DESIGN.md §5.13, ISSUE 9 satellite): the
// absolute rule that every fleet aggregate is BIT-identical — plain
// EXPECT_EQ on doubles via the defaulted BlockSum comparison, no tolerances —
// across every shards × jobs combination, with and without fault injection,
// and across a checkpoint/resume interruption that hands the remaining work
// to a differently-partitioned run.
//
// What is (deliberately) NOT claimed: per-shard folds compare across runs
// only at a FIXED shard count. A shard total is a fold of that shard's
// blocks, so changing the shard boundaries regroups the floating-point
// summation — the per-block sums and the flat block-order global fold are
// the invariants that hold at ANY partitioning.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"

namespace clr::fleet {
namespace {

namespace fs = std::filesystem;

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
  add(95, 0.97, 60, 3);
  return db;
}

rt::DrcMatrix make_drc() {
  return rt::DrcMatrix(4, {0, 10, 2, 5, 10, 0, 10, 4, 2, 10, 0, 8, 5, 4, 8, 0});
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

FleetConfig make_config(bool with_faults) {
  FleetConfig config;
  config.devices = 1000;  // 32 blocks of 32 devices + a short 8-device tail
  config.block_size = 32;
  config.seed = 0xDE7ULL;
  config.params.kind = exp::PolicyKind::Ura;
  config.params.p_rc = 0.4;
  config.params.sim.total_cycles = 1e3;
  config.ranges = make_ranges();
  if (with_faults) {
    config.params.faults.transient_rate = 1e-4;
    config.params.faults.pe_mtbf = 2e4;
    config.params.faults.validate();
    config.params.fault_profiles = {{1.0, 2.0}, {1.4, 1.6}, {0.7, 2.4}, {1.1, 2.1}};
  }
  return config;
}

/// The full ISSUE matrix: shards {1,4,16} × jobs {1,8}.
struct Combo {
  std::size_t shards, jobs;
};
const std::vector<Combo> kMatrix = {{1, 1}, {1, 8}, {4, 1}, {4, 8}, {16, 1}, {16, 8}};

void expect_block_table_identical(const FleetResult& a, const FleetResult& b,
                                  const std::string& what) {
  ASSERT_EQ(a.progress.blocks.size(), b.progress.blocks.size()) << what;
  ASSERT_EQ(a.progress.done, b.progress.done) << what;
  for (std::size_t i = 0; i < a.progress.blocks.size(); ++i) {
    // Defaulted operator==: every counter and double compared bit-for-bit.
    EXPECT_EQ(a.progress.blocks[i], b.progress.blocks[i]) << what << " block " << i;
  }
  EXPECT_EQ(a.summary.totals, b.summary.totals) << what;
  EXPECT_EQ(a.summary.mean_energy, b.summary.mean_energy) << what;
  EXPECT_EQ(a.summary.mean_availability, b.summary.mean_availability) << what;
}

void run_matrix_over(const FleetConfig& base) {
  const auto db = make_db();
  const auto drc = make_drc();

  std::vector<FleetResult> results;
  for (const Combo& combo : kMatrix) {
    FleetConfig config = base;
    config.shards = combo.shards;
    config.jobs = combo.jobs;
    results.push_back(run_fleet(db, drc, nullptr, config));
    ASSERT_TRUE(results.back().complete);
    ASSERT_EQ(results.back().devices_done, base.devices);
  }

  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_block_table_identical(results[i], results[0],
                                 "shards " + std::to_string(kMatrix[i].shards) + " jobs " +
                                     std::to_string(kMatrix[i].jobs));
  }

  // Per-shard folds: identical across job counts at each fixed shard count
  // (matrix entries are laid out in (shards, jobs) pairs).
  for (std::size_t pair = 0; pair < kMatrix.size(); pair += 2) {
    const auto& at_j1 = results[pair].shards;
    const auto& at_j8 = results[pair + 1].shards;
    ASSERT_EQ(at_j1.size(), at_j8.size());
    for (std::size_t s = 0; s < at_j1.size(); ++s) {
      EXPECT_EQ(at_j1[s].totals, at_j8[s].totals)
          << kMatrix[pair].shards << " shards, shard " << s << ": jobs must not affect the fold";
      EXPECT_EQ(at_j1[s].first_device, at_j8[s].first_device);
      EXPECT_EQ(at_j1[s].num_devices, at_j8[s].num_devices);
    }
  }
}

void run_matrix(bool with_faults) { run_matrix_over(make_config(with_faults)); }

TEST(FleetDeterminism, AggregatesBitIdenticalAcrossShardAndJobMatrix) { run_matrix(false); }

TEST(FleetDeterminism, AggregatesBitIdenticalAcrossShardAndJobMatrixWithFaults) {
  run_matrix(true);
}

TEST(FleetDeterminism, MdpPrefetchAggregatesBitIdenticalAcrossShardAndJobMatrix) {
  // ISSUE 10 differential: the MDP policy (one table shared by every worker)
  // plus speculative prefetch must survive the same shards × jobs matrix
  // bit-for-bit — with fault injection on, which exercises the
  // cancel-on-evacuation path of the reconfiguration port.
  FleetConfig config = make_config(true);
  config.params.kind = exp::PolicyKind::Mdp;
  config.params.mdp.makespan_bins = 4;
  config.params.mdp.func_rel_bins = 4;
  config.params.prefetch = true;
  run_matrix_over(config);
}

TEST(FleetDeterminism, PretrainedAuraAggregatesBitIdenticalAcrossShardAndJobMatrix) {
  // Pre-trained AuRA decides through each worker's DecisionTable, so which
  // worker filled an entry differs across the matrix; no aggregate may show
  // it.
  FleetConfig config = make_config(false);
  config.params.kind = exp::PolicyKind::Aura;
  config.params.pretrain_cycles = 2e3;
  config.params.pretrain_sweeps = 2;
  run_matrix_over(config);
}

/// Twelve points spread over four PEs (point i on PE i % 4), so a permanent
/// fault retires some points and leaves others alive.
dse::DesignDb make_spread_db() {
  dse::DesignDb db;
  for (int i = 0; i < 12; ++i) {
    dse::DesignPoint p;
    p.makespan = 80.0 + 4.0 * (i % 6) + (i / 6);
    p.func_rel = 0.92 + 0.01 * ((5 * i) % 8);
    p.energy = 30.0 + 5.0 * ((7 * i) % 11);
    p.config.tasks.resize(1);
    p.config.tasks[0].pe = static_cast<plat::PeId>(i % 4);
    p.config.tasks[0].priority = i;
    db.add(p);
  }
  return db;
}

rt::DrcMatrix make_spread_drc() {
  std::vector<double> costs(12 * 12, 0.0);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if (i != j) costs[i * 12 + j] = static_cast<double>(1 + (3 * i + 5 * j) % 7);
    }
  }
  return rt::DrcMatrix(12, std::move(costs));
}

TEST(FleetDeterminism, BlockSumsEqualATableLessSimulateDeviceLoop) {
  // run_fleet's workers decide through their DecisionTables; a sequential
  // simulate_device loop without one scans every decision. Every block sum
  // must carry the same bits — for pre-trained AuRA, and for uRA under
  // permanent faults, where a dead point makes the policy bypass the table.
  const auto db = make_spread_db();
  const auto drc = make_spread_drc();
  FleetConfig aura = make_config(false);
  aura.params.kind = exp::PolicyKind::Aura;
  aura.params.pretrain_cycles = 2e3;
  aura.params.pretrain_sweeps = 2;
  FleetConfig ura = make_config(true);
  ura.params.faults.pe_mtbf = 1e3;  // most devices lose a PE within the horizon
  for (const FleetConfig* base : {&aura, &ura}) {
    FleetConfig config = *base;
    config.devices = 300;
    config.shards = 4;
    config.jobs = 3;
    const FleetResult fleet = run_fleet(db, drc, nullptr, config);
    ASSERT_TRUE(fleet.complete);
    EXPECT_GT(fleet.decision_table.hits, 0u);

    const rt::QosProcess qos(config.ranges, config.params.qos);
    const rt::RuntimeSimulator sim(config.params.sim);
    std::vector<BlockSum> blocks(fleet.progress.blocks.size());
    for (std::uint64_t d = 0; d < config.devices; ++d) {
      blocks[d / config.block_size].add(
          simulate_device(db, drc, qos, sim, config.params, nullptr, d, config.seed));
    }
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      EXPECT_EQ(fleet.progress.blocks[b], blocks[b]) << "block " << b;
    }
    if (base == &ura) {
      EXPECT_GT(fleet.summary.totals.permanent_faults, 0u);
      EXPECT_GT(fleet.summary.totals.evacuations, 0u);
    }
  }
}

TEST(FleetDeterminism, PrefetchOffFoldsKeepStallEqualToReconfigCost) {
  // With prefetch off nothing is ever staged: the stall fold must carry the
  // exact bits of the folded reconfiguration cost (same addends, same order)
  // and the hidden/hit/miss counters must be identically zero. This pins the
  // pre-PR accounting: the old folded sum is still reconstructible as
  // stall + hidden on every block.
  const auto db = make_db();
  const auto drc = make_drc();
  const FleetResult r = run_fleet(db, drc, nullptr, make_config(true));
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.summary.totals.stall_time_sum, r.summary.totals.reconfig_cost_sum);
  EXPECT_EQ(r.summary.totals.hidden_time_sum, 0.0);
  EXPECT_EQ(r.summary.totals.prefetch_hits, 0u);
  EXPECT_EQ(r.summary.totals.prefetch_misses, 0u);
  for (const auto& block : r.progress.blocks) {
    EXPECT_EQ(block.stall_time_sum, block.reconfig_cost_sum);
    EXPECT_EQ(block.hidden_time_sum, 0.0);
  }
}

TEST(FleetDeterminism, PolicyAndPrefetchKnobsAreHashGuardedOnlyWhenActive) {
  // The param hash is extended ONLY for result-affecting knobs: toggling
  // prefetch or switching to the MDP policy must fence checkpoints, while
  // MDP planning knobs stay inert (hash-invisible) under a non-MDP policy —
  // that is what keeps every pre-PR checkpoint loadable.
  const FleetConfig base = make_config(false);  // Ura, prefetch off
  const std::uint64_t h0 = fleet_param_hash(base);

  FleetConfig prefetch_on = base;
  prefetch_on.params.prefetch = true;
  EXPECT_NE(fleet_param_hash(prefetch_on), h0);

  FleetConfig mdp = base;
  mdp.params.kind = exp::PolicyKind::Mdp;
  const std::uint64_t h_mdp = fleet_param_hash(mdp);
  EXPECT_NE(h_mdp, h0);

  FleetConfig inert = base;
  inert.params.mdp.gamma = 0.5;
  inert.params.mdp.makespan_bins = 3;
  inert.params.prefetch_params.min_observations = 99;
  EXPECT_EQ(fleet_param_hash(inert), h0) << "inactive knobs must not invalidate checkpoints";

  FleetConfig mdp_tuned = mdp;
  mdp_tuned.params.mdp.gamma = 0.5;
  EXPECT_NE(fleet_param_hash(mdp_tuned), h_mdp) << "active MDP knobs are result-affecting";
}

TEST(FleetDeterminism, RepeatedRunsAreBitIdentical) {
  // Same config twice: nothing in the pipeline (thread interleaving, the
  // order blocks are published in) may leak into the results.
  const auto db = make_db();
  const auto drc = make_drc();
  FleetConfig config = make_config(true);
  config.shards = 5;
  config.jobs = 3;
  const FleetResult a = run_fleet(db, drc, nullptr, config);
  const FleetResult b = run_fleet(db, drc, nullptr, config);
  expect_block_table_identical(a, b, "repeat");
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) EXPECT_EQ(a.shards[s].totals, b.shards[s].totals);
}

TEST(FleetDeterminism, CheckpointResumeInterruptionIsInvisibleInTheResult) {
  // Interrupt via step budget at one partitioning, resume (possibly over
  // several legs) at ANOTHER partitioning, and require the final aggregates
  // to carry the exact bits of an uninterrupted run — with faults on.
  const auto db = make_db();
  const auto drc = make_drc();
  const FleetConfig base = make_config(true);

  FleetConfig wide = base;
  wide.shards = 16;
  wide.jobs = 8;
  const FleetResult reference = run_fleet(db, drc, nullptr, wide);
  ASSERT_TRUE(reference.complete);

  const fs::path dir =
      fs::temp_directory_path() / ("clr_fleet_det_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string checkpoint = (dir / "fleet.clrdb").string();

  // Leg 1: 16 shards × 2 jobs, stopped after 7 blocks. The other worker
  // finishes at most the one block it had started, so the cut holds 7 or 8
  // of the 32 blocks and is guaranteed.
  exp::SessionControl control;
  control.checkpoint_path = checkpoint;
  control.checkpoint_every = 2;
  control.resume = true;
  control.step_budget = 7;
  FleetConfig leg1 = base;
  leg1.shards = 16;
  leg1.jobs = 2;
  const FleetSessionOutcome cut = run_fleet_session(db, drc, nullptr, leg1, control);
  ASSERT_FALSE(cut.result.complete);
  ASSERT_GE(cut.checkpoints_written, 1u);

  // Leg 2: finish at 1 shard × 1 job — the checkpoint carries no partitioning
  // residue, so the same file resumes under a totally different layout.
  FleetConfig leg2 = base;
  leg2.shards = 1;
  leg2.jobs = 1;
  control.step_budget = 0;
  const FleetSessionOutcome done = run_fleet_session(db, drc, nullptr, leg2, control);
  ASSERT_TRUE(done.result.complete);
  EXPECT_TRUE(done.resumed);
  EXPECT_LT(done.result.blocks_done_this_run, reference.progress.blocks.size())
      << "the resumed leg must reuse checkpointed blocks, not recompute everything";

  expect_block_table_identical(done.result, reference, "resumed vs uninterrupted");

  fs::remove_all(dir);
}

TEST(FleetDeterminism, BlockSizeIsResultAffectingAndHashGuarded) {
  // The one partitioning-looking knob that DOES affect results: block_size
  // regroups the double sums. The param hash must fence it (so checkpoints
  // cannot cross), and the integer counters must still agree (they are
  // associative — only the FP grouping changes).
  const auto db = make_db();
  const auto drc = make_drc();
  const FleetConfig a = make_config(false);
  FleetConfig b = a;
  b.block_size = 17;  // deliberately coprime to 32
  EXPECT_NE(fleet_param_hash(a), fleet_param_hash(b));
  const FleetResult ra = run_fleet(db, drc, nullptr, a);
  const FleetResult rb = run_fleet(db, drc, nullptr, b);
  EXPECT_EQ(ra.summary.totals.devices, rb.summary.totals.devices);
  EXPECT_EQ(ra.summary.totals.events, rb.summary.totals.events);
  EXPECT_EQ(ra.summary.totals.reconfigs, rb.summary.totals.reconfigs);
  EXPECT_EQ(ra.summary.totals.max_drc, rb.summary.totals.max_drc) << "max is order-free";
}

}  // namespace
}  // namespace clr::fleet
