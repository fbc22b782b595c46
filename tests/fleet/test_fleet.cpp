// Fleet pipeline unit tests (DESIGN.md §5.13): partition math, block-sum
// algebra, the per-device seeding/equality contract against
// exp::evaluate_policy_with, param-hash sensitivity (block_size in,
// shards/jobs out), cooperative stop + checkpoint cadence, the stop bound
// and exceptions reaching the caller, the FleetState checkpoint codec (round
// trip + hostile bytes), and the session layer's budget/resume discipline.
// The cross-configuration bit-identity matrix lives in
// test_fleet_determinism.cpp.

#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "io/snapshot.hpp"

namespace clr::fleet {
namespace {

namespace fs = std::filesystem;

// --- Fixtures (the tiny hand-built database the runtime tests share) ---------

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

rt::DrcMatrix make_drc() { return rt::DrcMatrix(3, {0, 10, 2, 10, 0, 10, 2, 10, 0}); }

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

FleetConfig make_config(std::uint64_t devices = 96, std::uint64_t block_size = 16) {
  FleetConfig config;
  config.devices = devices;
  config.block_size = block_size;
  config.seed = 0xF1EE7ULL;
  config.params.kind = exp::PolicyKind::Ura;
  config.params.p_rc = 0.3;
  config.params.sim.total_cycles = 2e3;
  config.ranges = make_ranges();
  return config;
}

void enable_faults(FleetConfig& config) {
  config.params.faults.transient_rate = 5e-5;
  config.params.faults.pe_mtbf = 5e4;
  config.params.faults.validate();
  config.params.fault_profiles = {{1.0, 2.0}, {1.4, 1.6}, {0.7, 2.4}};
}

class FleetTempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("clr_fleet_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) + "_" +
            std::to_string(static_cast<long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  fs::path dir_;
};

// --- Partition math -----------------------------------------------------------

TEST(FleetPartition, NumBlocksIsCeilOfDevicesOverBlockSize) {
  EXPECT_EQ(fleet_num_blocks(make_config(0, 16)), 0u);
  EXPECT_EQ(fleet_num_blocks(make_config(1, 16)), 1u);
  EXPECT_EQ(fleet_num_blocks(make_config(16, 16)), 1u);
  EXPECT_EQ(fleet_num_blocks(make_config(17, 16)), 2u);
  EXPECT_EQ(fleet_num_blocks(make_config(100000, 1024)), 98u);
}

TEST(FleetPartition, ShardBlockRangesTileTheBlockSpaceExactly) {
  for (std::uint64_t num_blocks : {0, 1, 2, 5, 16, 17, 31}) {
    for (std::size_t shards : {1, 2, 3, 7, 16, 20}) {
      std::uint64_t next = 0;
      std::uint64_t min_count = ~0ULL, max_count = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [first, count] = shard_block_range(num_blocks, shards, s);
        // Contiguous and in order: shard s starts where s-1 ended.
        EXPECT_EQ(first, next) << num_blocks << " blocks, shard " << s << "/" << shards;
        next = first + count;
        min_count = std::min(min_count, count);
        max_count = std::max(max_count, count);
      }
      EXPECT_EQ(next, num_blocks) << "shards must cover every block exactly once";
      EXPECT_LE(max_count - min_count, 1u) << "split must stay balanced";
    }
  }
}

TEST(FleetPartition, ShardBlockRangeRejectsBadIndices) {
  EXPECT_THROW(shard_block_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard_block_range(10, 4, 4), std::invalid_argument);
  EXPECT_THROW(shard_block_range(10, 4, 99), std::invalid_argument);
}

// --- Block-sum algebra --------------------------------------------------------

DeviceResult make_result(std::uint64_t device) {
  DeviceResult r;
  r.device = device;
  r.events = 10 + device;
  r.reconfigs = device % 3;
  r.transient_faults = device % 2;
  r.avg_energy = 50.0 + 0.25 * static_cast<double>(device);
  r.total_reconfig_cost = 2.0 * static_cast<double>(device % 5);
  r.qos_violation_time = 0.125 * static_cast<double>(device);
  r.downtime = 0.5 * static_cast<double>(device % 4);
  r.availability = 1.0 - 1e-3 * static_cast<double>(device % 7);
  r.mttr = 3.0 + static_cast<double>(device % 2);
  r.max_drc = static_cast<double>(device % 11);
  return r;
}

TEST(FleetBlockSum, AddThenMergeEqualsOneFlatFoldInTheSameOrder) {
  // Folding devices 0..31 as two 16-device blocks merged in block order must
  // give the exact bits of one flat device-order fold: merge() concatenates
  // sums whose parenthesization matches the block partition.
  BlockSum flat;
  for (std::uint64_t d = 0; d < 32; ++d) flat.add(make_result(d));

  BlockSum b0, b1;
  for (std::uint64_t d = 0; d < 16; ++d) b0.add(make_result(d));
  for (std::uint64_t d = 16; d < 32; ++d) b1.add(make_result(d));
  BlockSum merged = b0;
  merged.merge(b1);

  EXPECT_EQ(merged.devices, 32u);
  EXPECT_EQ(merged.events, flat.events);
  EXPECT_EQ(merged.reconfigs, flat.reconfigs);
  EXPECT_EQ(merged.transient_faults, flat.transient_faults);
  // Integer counters are associative; the double sums agree here because
  // every addend in this synthetic fixture is exactly representable is NOT
  // assumed — we only require the counters and max to be exact and the sums
  // to match the same grouping (checked bitwise in the determinism suite).
  EXPECT_EQ(merged.max_drc, flat.max_drc);
  EXPECT_EQ(merged.devices, flat.devices);
}

TEST(FleetBlockSum, MaxDrcIsOrderFreeMax) {
  BlockSum a, b;
  DeviceResult hi = make_result(3);
  hi.max_drc = 42.0;
  a.add(make_result(0));
  a.add(hi);
  b.add(hi);
  b.add(make_result(0));
  EXPECT_EQ(a.max_drc, 42.0);
  EXPECT_EQ(b.max_drc, 42.0);
}

// --- Seeding + the evaluate_policy_with equality contract ---------------------

TEST(FleetSeeding, DeviceSeedIsAPureDecorrelatedFunctionOfBaseAndId) {
  EXPECT_EQ(device_seed(7, 1000), device_seed(7, 1000));
  EXPECT_NE(device_seed(7, 1000), device_seed(7, 1001));
  EXPECT_NE(device_seed(7, 1000), device_seed(8, 1000));
  // Consecutive ids must not produce near-identical streams: the SplitMix64
  // finalizer separates them even though the raw inputs differ by one
  // golden-ratio step.
  const std::uint64_t a = device_seed(1, 0), b = device_seed(1, 1);
  EXPECT_NE(a >> 32, b >> 32);
}

TEST(FleetSeeding, SimulateDeviceIsBitIdenticalToEvaluatePolicyWith) {
  const auto db = make_db();
  const auto drc = make_drc();
  for (const bool faults : {false, true}) {
    for (const exp::PolicyKind kind :
         {exp::PolicyKind::Baseline, exp::PolicyKind::Ura, exp::PolicyKind::Aura}) {
      FleetConfig config = make_config();
      config.params.kind = kind;
      if (faults) enable_faults(config);
      const rt::QosProcess qos(config.ranges, config.params.qos);
      const rt::RuntimeSimulator sim(config.params.sim);
      for (const std::uint64_t device : {0ULL, 17ULL, 95ULL}) {
        const DeviceResult fleet_result = simulate_device(db, drc, qos, sim, config.params,
                                                          nullptr, device, config.seed);
        const rt::RuntimeStats reference = exp::evaluate_policy_with(
            db, drc, config.ranges, config.params, device_seed(config.seed, device), nullptr);
        // Bitwise equality (plain EXPECT_EQ on doubles), not approximate: the
        // fleet path must BE the reference path under the derived seed.
        EXPECT_EQ(fleet_result.events, reference.num_events);
        EXPECT_EQ(fleet_result.reconfigs, reference.num_reconfigs);
        EXPECT_EQ(fleet_result.infeasible_events, reference.num_infeasible_events);
        EXPECT_EQ(fleet_result.transient_faults, reference.num_transient_faults);
        EXPECT_EQ(fleet_result.recovered_transients, reference.num_recovered_transients);
        EXPECT_EQ(fleet_result.unrecovered_failures, reference.num_unrecovered_failures);
        EXPECT_EQ(fleet_result.permanent_faults, reference.num_permanent_faults);
        EXPECT_EQ(fleet_result.evacuations, reference.num_evacuations);
        EXPECT_EQ(fleet_result.safe_mode_entries, reference.num_safe_mode_entries);
        EXPECT_EQ(fleet_result.avg_energy, reference.avg_energy);
        EXPECT_EQ(fleet_result.total_reconfig_cost, reference.total_reconfig_cost);
        EXPECT_EQ(fleet_result.qos_violation_time, reference.qos_violation_time);
        EXPECT_EQ(fleet_result.downtime, reference.downtime);
        EXPECT_EQ(fleet_result.availability, reference.availability);
        EXPECT_EQ(fleet_result.mttr, reference.mttr);
        EXPECT_EQ(fleet_result.max_drc, reference.max_drc);
      }
    }
  }
}

// --- Param hash ---------------------------------------------------------------

TEST(FleetParamHash, ResultAffectingKnobsChangeTheHash) {
  const FleetConfig base = make_config();
  const std::uint64_t h = fleet_param_hash(base);
  auto mutated = [&](auto&& mutate) {
    FleetConfig c = base;
    mutate(c);
    return fleet_param_hash(c);
  };
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.devices += 1; }));
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.seed += 1; }));
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.block_size *= 2; }));
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.params.kind = exp::PolicyKind::Aura; }));
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.params.p_rc = 0.9; }));
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.params.sim.total_cycles *= 2; }));
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.params.faults.transient_rate = 1e-4; }));
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.params.fault_profiles = {{1.5, 2.0}}; }));
  EXPECT_NE(h, mutated([](FleetConfig& c) { c.ranges.makespan_max += 1.0; }));
}

TEST(FleetParamHash, PartitioningKnobsNeverChangeTheHash) {
  // The checkpoint-compatibility contract: shards and jobs are pure
  // partitioning knobs, so a checkpoint taken at any of them resumes at any
  // other.
  const FleetConfig base = make_config();
  const std::uint64_t h = fleet_param_hash(base);
  FleetConfig c = base;
  c.shards = 16;
  c.jobs = 8;
  EXPECT_EQ(h, fleet_param_hash(c));
}

// --- run_fleet validation + control ------------------------------------------

TEST(FleetRun, RejectsZeroBlockSizeAndTracedRuns) {
  const auto db = make_db();
  const auto drc = make_drc();
  FleetConfig bad_block = make_config();
  bad_block.block_size = 0;
  EXPECT_THROW(run_fleet(db, drc, nullptr, bad_block), std::invalid_argument);
  FleetConfig traced = make_config();
  traced.params.sim.trace_events = 10;
  EXPECT_THROW(run_fleet(db, drc, nullptr, traced), std::invalid_argument);
}

TEST(FleetRun, ZeroDevicesCompletesEmpty) {
  const auto db = make_db();
  const auto drc = make_drc();
  const FleetResult result = run_fleet(db, drc, nullptr, make_config(0));
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.devices_done, 0u);
  EXPECT_TRUE(result.progress.blocks.empty());
  EXPECT_EQ(result.summary.totals.devices, 0u);
}

TEST(FleetRun, ResumeRefusesForeignProgress) {
  const auto db = make_db();
  const auto drc = make_drc();
  const FleetConfig config = make_config();
  FleetProgress foreign;
  foreign.param_hash = fleet_param_hash(config) ^ 1;
  foreign.devices = config.devices;
  foreign.block_size = config.block_size;
  foreign.done.assign(static_cast<std::size_t>(fleet_num_blocks(config)), 0);
  foreign.blocks.assign(static_cast<std::size_t>(fleet_num_blocks(config)), BlockSum{});
  FleetControl control;
  control.resume = &foreign;
  EXPECT_THROW(run_fleet(db, drc, nullptr, config, control), std::invalid_argument);
}

TEST(FleetRun, StopAtBlockBoundaryThenResumeMatchesUninterruptedBitwise) {
  const auto db = make_db();
  const auto drc = make_drc();
  FleetConfig config = make_config(256, 16);  // 16 blocks
  config.jobs = 1;

  const FleetResult reference = run_fleet(db, drc, nullptr, config);
  ASSERT_TRUE(reference.complete);

  // Stop once 2 blocks are done: one worker checks the stop before its next
  // block, so the run ends with exactly those 2 whole blocks.
  util::StopSource stop;
  FleetControl control;
  control.stop = stop.token();
  control.on_block = [&](std::uint64_t done, std::uint64_t) {
    if (done >= 2) stop.request_stop();
  };
  const FleetResult partial = run_fleet(db, drc, nullptr, config, control);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.progress.blocks_done(), 2u);
  EXPECT_EQ(partial.devices_done, 2 * config.block_size);

  // Every completed block already carries its final bits.
  for (std::size_t b = 0; b < partial.progress.done.size(); ++b) {
    if (partial.progress.done[b] != 0) {
      EXPECT_EQ(partial.progress.blocks[b], reference.progress.blocks[b]) << "block " << b;
    }
  }

  FleetControl resume;
  resume.resume = &partial.progress;
  const FleetResult resumed = run_fleet(db, drc, nullptr, config, resume);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.blocks_done_this_run + partial.progress.blocks_done(), 16u);
  EXPECT_EQ(resumed.progress.blocks, reference.progress.blocks);
  EXPECT_EQ(resumed.summary.totals, reference.summary.totals);
}

TEST(FleetRun, CheckpointCadenceFiresEveryNBlocksAndFlushesAtTheEnd) {
  const auto db = make_db();
  const auto drc = make_drc();
  FleetConfig config = make_config(96, 16);  // 6 blocks
  config.jobs = 1;  // in-order completion makes the cadence points exact
  std::vector<std::uint64_t> checkpoint_blocks;
  FleetControl control;
  control.checkpoint_every = 2;
  control.on_checkpoint = [&](const FleetProgress& p) {
    checkpoint_blocks.push_back(p.blocks_done());
  };
  const FleetResult result = run_fleet(db, drc, nullptr, config, control);
  ASSERT_TRUE(result.complete);
  // 6 blocks at a cadence of 2: checkpoints at 2, 4, 6 completed blocks (the
  // last doubles as the final flush; no extra empty flush after it).
  ASSERT_EQ(checkpoint_blocks.size(), 3u);
  EXPECT_EQ(checkpoint_blocks[0], 2u);
  EXPECT_EQ(checkpoint_blocks[1], 4u);
  EXPECT_EQ(checkpoint_blocks[2], 6u);
}

TEST(FleetRun, WorkerExceptionReachesTheCaller) {
  // Each device builds its policy on the worker that simulates it; AuraPolicy
  // rejects gamma = 1 there, and run_fleet rethrows that on the caller.
  const auto db = make_db();
  const auto drc = make_drc();
  for (const std::size_t jobs : {1u, 4u}) {
    FleetConfig config = make_config();
    config.params.kind = exp::PolicyKind::Aura;
    config.params.aura.gamma = 1.0;
    config.jobs = jobs;
    try {
      (void)run_fleet(db, drc, nullptr, config);
      ADD_FAILURE() << "jobs " << jobs << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "AuraPolicy: gamma must be in [0,1)") << "jobs " << jobs;
    }
  }
}

TEST(FleetRun, CheckpointExceptionReachesTheCallerAndStopsEveryWorker) {
  // on_checkpoint fails once, at the first completed block. Each other worker
  // may still publish the block it had started, and starts none after, so
  // on_block runs at most `jobs` times in all.
  const auto db = make_db();
  const auto drc = make_drc();
  for (const std::size_t jobs : {1u, 4u}) {
    FleetConfig config = make_config(256, 16);  // 16 blocks
    config.shards = 16;
    config.jobs = jobs;
    std::uint64_t blocks = 0;  // callbacks never overlap: no atomics needed
    std::uint64_t checkpoints = 0;
    FleetControl control;
    control.checkpoint_every = 1;
    control.on_block = [&](std::uint64_t, std::uint64_t) { ++blocks; };
    control.on_checkpoint = [&](const FleetProgress&) {
      if (checkpoints++ == 0) throw std::runtime_error("cannot write the checkpoint");
    };
    try {
      (void)run_fleet(db, drc, nullptr, config, control);
      ADD_FAILURE() << "jobs " << jobs << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cannot write the checkpoint") << "jobs " << jobs;
    }
    EXPECT_GE(blocks, 1u) << "jobs " << jobs;
    EXPECT_LE(blocks, jobs) << "jobs " << jobs;
  }
}

// --- summarize / summarize_shards --------------------------------------------

TEST(FleetSummarize, ShardSummariesTileTheDeviceRangeAndFoldToTheTotal) {
  const auto db = make_db();
  const auto drc = make_drc();
  const FleetConfig config = make_config(100, 16);  // 7 blocks, short tail
  const FleetResult result = run_fleet(db, drc, nullptr, config);
  ASSERT_TRUE(result.complete);

  for (const std::size_t shards : {1u, 3u, 7u, 9u}) {
    const auto summaries = summarize_shards(result.progress, shards);
    ASSERT_EQ(summaries.size(), shards);
    std::uint64_t devices = 0;
    BlockSum refold;
    for (const ShardSummary& s : summaries) {
      devices += s.num_devices;
      refold.merge(s.totals);
    }
    EXPECT_EQ(devices, 100u) << shards << " shards";
    EXPECT_EQ(refold.devices, result.summary.totals.devices);
    EXPECT_EQ(refold.events, result.summary.totals.events);
    EXPECT_EQ(refold.max_drc, result.summary.totals.max_drc);
  }

  const FleetSummary summary = summarize(result.progress);
  EXPECT_EQ(summary.totals, result.summary.totals);
  EXPECT_EQ(summary.mean_energy, result.summary.mean_energy);
}

// --- FleetState checkpoint codec ---------------------------------------------

io::FleetCheckpoint make_checkpoint() {
  io::FleetCheckpoint c;
  c.sequence = 9;
  c.param_hash = 0xABCDEF0123456789ULL;
  c.progress.param_hash = c.param_hash;
  c.progress.devices = 100;
  c.progress.block_size = 16;
  c.progress.done = {1, 0, 1, 1, 0, 0, 1};
  c.progress.blocks.resize(7);
  for (std::size_t b = 0; b < 7; ++b) {
    if (c.progress.done[b] == 0) continue;
    for (std::uint64_t d = 0; d < 16; ++d) c.progress.blocks[b].add(make_result(b * 16 + d));
  }
  return c;
}

TEST(FleetCheckpointCodec, RoundTripIsFieldExact) {
  const io::FleetCheckpoint c = make_checkpoint();
  const std::string bytes = io::serialize_fleet_checkpoint(c);
  const io::Snapshot snap = io::Snapshot::from_bytes(std::string(bytes));
  EXPECT_EQ(io::checkpoint_sequence(snap.view()), 9u);
  const io::FleetCheckpoint back = io::decode_fleet_checkpoint(snap.view());
  EXPECT_EQ(back.sequence, c.sequence);
  EXPECT_EQ(back.param_hash, c.param_hash);
  EXPECT_EQ(back.progress.param_hash, c.progress.param_hash);
  EXPECT_EQ(back.progress.devices, c.progress.devices);
  EXPECT_EQ(back.progress.block_size, c.progress.block_size);
  EXPECT_EQ(back.progress.done, c.progress.done);
  // BlockSum == is defaulted member-wise comparison: bit-exact doubles.
  EXPECT_EQ(back.progress.blocks, c.progress.blocks);
}

TEST(FleetCheckpointCodec, EveryTruncationSurfacesAsTypedError) {
  const std::string bytes = io::serialize_fleet_checkpoint(make_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      const io::Snapshot snap = io::Snapshot::from_bytes(bytes.substr(0, len));
      (void)io::decode_fleet_checkpoint(snap.view());
      FAIL() << "truncation to " << len << " bytes accepted";
    } catch (const io::SnapshotError&) {
      // expected: typed error, never a crash or silent success
    }
  }
}

TEST(FleetCheckpointCodec, EverySingleByteFlipSurfacesAsTypedError) {
  const std::string good = io::serialize_fleet_checkpoint(make_checkpoint());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    try {
      const io::Snapshot snap = io::Snapshot::from_bytes(std::move(bad));
      (void)io::decode_fleet_checkpoint(snap.view());
      FAIL() << "flip at byte " << i << " accepted";
    } catch (const io::SnapshotError&) {
      // expected
    }
  }
}

// --- Session layer ------------------------------------------------------------

TEST_F(FleetTempDir, SessionStepBudgetStopsWholeBlocksAndResumeCompletes) {
  const auto db = make_db();
  const auto drc = make_drc();
  FleetConfig config = make_config(256, 16);  // 16 blocks
  config.jobs = 1;

  const FleetResult reference = run_fleet(db, drc, nullptr, config);

  exp::SessionControl control;
  control.checkpoint_path = path("fleet.clrdb");
  control.checkpoint_every = 1;
  control.resume = true;
  control.step_budget = 3;
  const FleetSessionOutcome cut = run_fleet_session(db, drc, nullptr, config, control);
  EXPECT_FALSE(cut.result.complete);
  // The budget arms the stop at the third completed block, and one worker
  // starts no block after it.
  EXPECT_EQ(cut.result.blocks_done_this_run, 3u);
  EXPECT_EQ(cut.stop_reason, util::StopReason::Budget);
  EXPECT_GE(cut.checkpoints_written, 1u);
  EXPECT_FALSE(cut.resumed);

  control.step_budget = 0;
  const FleetSessionOutcome done = run_fleet_session(db, drc, nullptr, config, control);
  EXPECT_TRUE(done.result.complete);
  EXPECT_TRUE(done.resumed);
  EXPECT_EQ(done.result.blocks_done_this_run + cut.result.blocks_done_this_run, 16u)
      << "resume must not redo finished blocks";
  EXPECT_EQ(done.result.progress.blocks, reference.progress.blocks);
  EXPECT_EQ(done.result.summary.totals, reference.summary.totals);
}

TEST_F(FleetTempDir, SessionResumeRefusesParamHashMismatch) {
  const auto db = make_db();
  const auto drc = make_drc();
  FleetConfig config = make_config(96, 16);

  exp::SessionControl control;
  control.checkpoint_path = path("fleet.clrdb");
  control.checkpoint_every = 1;
  control.resume = true;
  control.step_budget = 2;
  (void)run_fleet_session(db, drc, nullptr, config, control);

  config.seed ^= 0xDEADULL;  // different fleet identity, same checkpoint path
  control.step_budget = 0;
  EXPECT_THROW(run_fleet_session(db, drc, nullptr, config, control), std::runtime_error);
}

TEST(FleetSession, StepBudgetStopsAtMostJobsMinusOneBlocksLate) {
  // The budget stops the run from on_block at the third completed block; each
  // other worker may finish the block it had started, so 3 + jobs - 1 bounds
  // the cut at any shard count.
  const auto db = make_db();
  const auto drc = make_drc();
  exp::SessionControl control;
  control.checkpoint_every = 1;
  control.step_budget = 3;
  for (const std::size_t jobs : {2u, 4u}) {
    FleetConfig config = make_config(256, 16);  // 16 blocks
    config.shards = 16;
    config.jobs = jobs;
    for (int run = 0; run < 20; ++run) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) + ", run " + std::to_string(run));
      const FleetSessionOutcome cut = run_fleet_session(db, drc, nullptr, config, control);
      EXPECT_EQ(cut.stop_reason, util::StopReason::Budget);
      EXPECT_GE(cut.result.blocks_done_this_run, 3u);
      EXPECT_LE(cut.result.blocks_done_this_run, 3 + jobs - 1);
    }
  }
}

TEST(FleetSession, BudgetOfThreeOfFiveBlocksNeverCompletesAtTwoJobs) {
  // 3 + (2 - 1) = 4 of 5 blocks at most: the fleet can never complete.
  const auto db = make_db();
  const auto drc = make_drc();
  FleetConfig config = make_config(80, 16);  // 5 blocks
  config.jobs = 2;
  exp::SessionControl control;
  control.checkpoint_every = 1;
  control.step_budget = 3;
  for (int run = 0; run < 20; ++run) {
    const FleetSessionOutcome cut = run_fleet_session(db, drc, nullptr, config, control);
    EXPECT_FALSE(cut.result.complete) << "run " << run;
    EXPECT_LE(cut.result.blocks_done_this_run, 4u) << "run " << run;
  }
}

TEST(FleetSession, UnwritableCheckpointThrowsBeforeAnyBlock) {
  // The session checks the path before the run, so no block is lost. Its
  // on_block is the only reader of the external stop token, and an expired
  // deadline latches on the first read: an unlatched source proves that
  // on_block never ran.
  const auto db = make_db();
  const auto drc = make_drc();
  util::StopSource external;
  external.set_deadline_after(-1.0);
  exp::SessionControl control;
  control.stop = external.token();
  control.checkpoint_every = 1;
  control.checkpoint_path =
      (fs::temp_directory_path() / "clr_fleet_no_such_dir" / "f.clrdb").string();
  EXPECT_THROW(run_fleet_session(db, drc, nullptr, make_config(), control), io::SnapshotError);
  EXPECT_EQ(external.reason(), util::StopReason::None) << "a block finished before the error";
}

TEST(FleetSession, RejectsZeroCadenceAndPathlessResume) {
  const auto db = make_db();
  const auto drc = make_drc();
  exp::SessionControl no_cadence;
  no_cadence.checkpoint_every = 0;
  EXPECT_THROW(run_fleet_session(db, drc, nullptr, make_config(), no_cadence),
               std::invalid_argument);
  exp::SessionControl pathless;
  pathless.checkpoint_every = 1;
  pathless.resume = true;
  EXPECT_THROW(run_fleet_session(db, drc, nullptr, make_config(), pathless),
               std::invalid_argument);
}

}  // namespace
}  // namespace clr::fleet
