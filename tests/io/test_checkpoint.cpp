// Checkpoint codec + A/B store tests (DESIGN.md §5.12): field-exact round
// trips, hostile-byte rejection (every single-byte flip and every truncation
// surfaces as a typed SnapshotError), the crash-fallback guarantee of the
// CheckpointStore slot pair, byte-exact decoding of v4 checkpoints written
// by older clrtool builds, and the refusal of v3 ones (tests/io/fixtures/).

#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace clr::io {
namespace {

namespace fs = std::filesystem;

// --- Fixtures ----------------------------------------------------------------

dse::DesignDb make_db(std::size_t points, std::uint64_t salt) {
  dse::DesignDb db;
  for (std::size_t i = 0; i < points; ++i) {
    dse::DesignPoint p;
    p.energy = 10.0 + 0.5 * static_cast<double>(i + salt);
    p.makespan = 90.0 - 0.25 * static_cast<double>(i);
    p.func_rel = 0.99 - 1e-3 * static_cast<double>(i);
    p.extra = (i + salt) % 2 == 1;
    p.config.tasks.resize(1 + (i + salt) % 3);
    for (std::size_t t = 0; t < p.config.tasks.size(); ++t) {
      auto& a = p.config.tasks[t];
      a.pe = static_cast<plat::PeId>((i + t) % 3);
      a.impl_index = static_cast<std::uint32_t>(t % 2);
      a.clr_index = static_cast<std::uint32_t>((i + 5 * t) % 7);
      a.priority = static_cast<std::int32_t>(t) - 1;
    }
    db.add(std::move(p));
  }
  return db;
}

moea::GaState make_ga_state() {
  moea::GaState ga;
  ga.generations_done = 17;
  ga.rng_state = "12345 67890 42";
  for (int i = 0; i < 4; ++i) {
    moea::Individual ind;
    ind.genes = {i, 7 - i, i * i};
    ind.eval.objectives = {1.5 * i, 9.0 - i};
    ind.eval.violation = i == 3 ? 0.25 : 0.0;
    ind.fitness = 30.0 - i;
    ind.rank = i % 2;
    ind.crowding = 0.125 * i;
    ga.population.push_back(ind);
    if (i < 2) ga.archive.push_back(ind);
  }
  return ga;
}

ExploreCheckpoint make_explore(std::uint32_t stage = 1) {
  ExploreCheckpoint c;
  c.sequence = 5;
  c.param_hash = 0xABCDEF0123456789ULL;
  c.stage = stage;
  c.spec_max_makespan = 123.5;
  c.spec_min_func_rel = 0.875;
  if (stage == 0) {
    c.ref = {1.0, 2.5, -3.0};
    c.scale = {0.5, 0.25, 1.0};
  }
  c.ga = make_ga_state();
  c.red_seed_pos = stage == 1 ? 2 : 0;
  if (stage == 1) {
    c.based = make_db(3, 1);
    c.red = make_db(2, 9);
  }
  return c;
}

rt::RuntimeStats make_stats(std::size_t i) {
  rt::RuntimeStats s;
  s.total_cycles = 1000.0 + i;
  s.num_events = 10 + i;
  s.num_reconfigs = 3 + i;
  s.num_infeasible_events = i % 2;
  s.avg_energy = 55.5 + 0.1 * i;
  s.total_reconfig_cost = 12.0 + i;
  s.avg_reconfig_cost = 4.0;
  s.max_drc = 9.75;
  s.qos_violation_time = 1.5 * i;
  s.num_transient_faults = 2 * i;
  s.num_recovered_transients = i;
  s.num_unrecovered_failures = i / 2;
  s.num_permanent_faults = i % 3;
  s.num_evacuations = i % 2;
  s.num_safe_mode_entries = i % 4;
  s.downtime = 0.5 * i;
  s.availability = 1.0 - 1e-4 * i;
  s.mttr = 0.25 * i;
  return s;
}

RunnerCheckpoint make_runner() {
  RunnerCheckpoint c;
  c.sequence = 2;
  c.grid_hash = 0x1122334455667788ULL;
  c.replications = 3;
  c.done = {1, 0, 1, 1, 0, 0};
  for (std::size_t i = 0; i < c.done.size(); ++i) c.runs.push_back(make_stats(i));
  return c;
}

void expect_db_equal(const dse::DesignDb& a, const dse::DesignDb& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.point(i).config, b.point(i).config) << "point " << i;
    EXPECT_DOUBLE_EQ(a.point(i).energy, b.point(i).energy) << "point " << i;
    EXPECT_DOUBLE_EQ(a.point(i).makespan, b.point(i).makespan) << "point " << i;
    EXPECT_DOUBLE_EQ(a.point(i).func_rel, b.point(i).func_rel) << "point " << i;
    EXPECT_EQ(a.point(i).extra, b.point(i).extra) << "point " << i;
  }
}

void expect_ga_equal(const moea::GaState& a, const moea::GaState& b) {
  EXPECT_EQ(a.generations_done, b.generations_done);
  EXPECT_EQ(a.rng_state, b.rng_state);
  ASSERT_EQ(a.population.size(), b.population.size());
  ASSERT_EQ(a.archive.size(), b.archive.size());
  auto same = [](const moea::Individual& x, const moea::Individual& y) {
    EXPECT_EQ(x.genes, y.genes);
    EXPECT_EQ(x.eval.objectives, y.eval.objectives);
    EXPECT_DOUBLE_EQ(x.eval.violation, y.eval.violation);
    EXPECT_DOUBLE_EQ(x.fitness, y.fitness);
    EXPECT_EQ(x.rank, y.rank);
    EXPECT_DOUBLE_EQ(x.crowding, y.crowding);
  };
  for (std::size_t i = 0; i < a.population.size(); ++i) same(a.population[i], b.population[i]);
  for (std::size_t i = 0; i < a.archive.size(); ++i) same(a.archive[i], b.archive[i]);
}

void expect_stats_equal(const rt::RuntimeStats& a, const rt::RuntimeStats& b) {
  EXPECT_DOUBLE_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.num_reconfigs, b.num_reconfigs);
  EXPECT_EQ(a.num_infeasible_events, b.num_infeasible_events);
  EXPECT_DOUBLE_EQ(a.avg_energy, b.avg_energy);
  EXPECT_DOUBLE_EQ(a.total_reconfig_cost, b.total_reconfig_cost);
  EXPECT_DOUBLE_EQ(a.avg_reconfig_cost, b.avg_reconfig_cost);
  EXPECT_DOUBLE_EQ(a.max_drc, b.max_drc);
  EXPECT_DOUBLE_EQ(a.qos_violation_time, b.qos_violation_time);
  EXPECT_EQ(a.num_transient_faults, b.num_transient_faults);
  EXPECT_EQ(a.num_recovered_transients, b.num_recovered_transients);
  EXPECT_EQ(a.num_unrecovered_failures, b.num_unrecovered_failures);
  EXPECT_EQ(a.num_permanent_faults, b.num_permanent_faults);
  EXPECT_EQ(a.num_evacuations, b.num_evacuations);
  EXPECT_EQ(a.num_safe_mode_entries, b.num_safe_mode_entries);
  EXPECT_DOUBLE_EQ(a.downtime, b.downtime);
  EXPECT_DOUBLE_EQ(a.availability, b.availability);
  EXPECT_DOUBLE_EQ(a.mttr, b.mttr);
  EXPECT_TRUE(b.trace.empty()) << "traces must not survive the checkpoint";
}

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("clr_ckpt_" + std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Checkpoints written by older clrtool builds (tests/io/fixtures/README.md).
std::string read_fixture(const std::string& name) {
  return read_file(std::string(CLR_IO_FIXTURES) + "/" + name);
}

// --- Round trips -------------------------------------------------------------

TEST(CheckpointCodec, ExploreRedStageRoundTripsFieldExactly) {
  const ExploreCheckpoint c = make_explore(1);
  const std::string bytes = serialize_explore_checkpoint(c);
  const Snapshot snap = Snapshot::from_bytes(std::string(bytes));
  ASSERT_TRUE(snap.view().has_checkpoint());
  EXPECT_EQ(snap.view().checkpoint_section_kind(),
            static_cast<std::uint32_t>(SnapshotSection::ExploreState));

  const ExploreCheckpoint d = decode_explore_checkpoint(snap.view());
  EXPECT_EQ(d.sequence, c.sequence);
  EXPECT_EQ(d.param_hash, c.param_hash);
  EXPECT_EQ(d.stage, c.stage);
  EXPECT_DOUBLE_EQ(d.spec_max_makespan, c.spec_max_makespan);
  EXPECT_DOUBLE_EQ(d.spec_min_func_rel, c.spec_min_func_rel);
  EXPECT_EQ(d.ref, c.ref);
  EXPECT_EQ(d.scale, c.scale);
  expect_ga_equal(d.ga, c.ga);
  EXPECT_EQ(d.red_seed_pos, c.red_seed_pos);
  expect_db_equal(d.based, c.based);
  expect_db_equal(d.red, c.red);
}

TEST(CheckpointCodec, ExploreBaseStageRoundTripsFieldExactly) {
  const ExploreCheckpoint c = make_explore(0);
  const ExploreCheckpoint d =
      decode_explore_checkpoint(Snapshot::from_bytes(serialize_explore_checkpoint(c)).view());
  EXPECT_EQ(d.stage, 0u);
  EXPECT_EQ(d.ref, c.ref);
  EXPECT_EQ(d.scale, c.scale);
  expect_ga_equal(d.ga, c.ga);
  EXPECT_EQ(d.based.size(), 0u);
  EXPECT_EQ(d.red.size(), 0u);
}

TEST(CheckpointCodec, RunnerRoundTripsFieldExactly) {
  RunnerCheckpoint c = make_runner();
  c.runs[0].trace.resize(3);  // the encoder must strip traces
  const Snapshot snap = Snapshot::from_bytes(serialize_runner_checkpoint(c));
  ASSERT_TRUE(snap.view().has_checkpoint());
  EXPECT_EQ(snap.view().checkpoint_section_kind(),
            static_cast<std::uint32_t>(SnapshotSection::RunnerState));

  const RunnerCheckpoint d = decode_runner_checkpoint(snap.view());
  EXPECT_EQ(d.sequence, c.sequence);
  EXPECT_EQ(d.grid_hash, c.grid_hash);
  EXPECT_EQ(d.replications, c.replications);
  EXPECT_EQ(d.done, c.done);
  ASSERT_EQ(d.runs.size(), c.runs.size());
  for (std::size_t i = 0; i < d.runs.size(); ++i) expect_stats_equal(c.runs[i], d.runs[i]);
}

TEST(CheckpointCodec, SequencePeeksWithoutFullDecode) {
  EXPECT_EQ(checkpoint_sequence(
                Snapshot::from_bytes(serialize_explore_checkpoint(make_explore())).view()),
            5u);
  EXPECT_EQ(
      checkpoint_sequence(Snapshot::from_bytes(serialize_runner_checkpoint(make_runner())).view()),
      2u);
}

// --- Validation --------------------------------------------------------------

TEST(CheckpointCodec, KindMismatchIsRejected) {
  const Snapshot explore = Snapshot::from_bytes(serialize_explore_checkpoint(make_explore()));
  const Snapshot runner = Snapshot::from_bytes(serialize_runner_checkpoint(make_runner()));
  EXPECT_THROW(decode_runner_checkpoint(explore.view()), SnapshotError);
  EXPECT_THROW(decode_explore_checkpoint(runner.view()), SnapshotError);
}

TEST(CheckpointCodec, DesignDatabaseIsNotACheckpoint) {
  // A plain design database has no checkpoint section; the decoders and the
  // sequence peek must refuse it rather than misread point data.
  const rel::ClrSpace space(rel::ClrGranularity::Full);
  const Snapshot snap = Snapshot::from_bytes(serialize_snapshot(make_db(2, 0), space));
  EXPECT_FALSE(snap.view().has_checkpoint());
  EXPECT_THROW(decode_explore_checkpoint(snap.view()), SnapshotError);
  EXPECT_THROW(checkpoint_sequence(snap.view()), SnapshotError);
}

TEST(CheckpointCodec, CheckpointContainerRefusesMaterialize) {
  const Snapshot snap = Snapshot::from_bytes(serialize_explore_checkpoint(make_explore()));
  EXPECT_THROW(materialize(snap.view()), SnapshotError);
}

TEST(CheckpointCodec, InvalidStageIsRejected) {
  ExploreCheckpoint c = make_explore(0);
  c.stage = 2;
  const std::string bytes = serialize_explore_checkpoint(c);
  try {
    decode_explore_checkpoint(Snapshot::from_bytes(std::string(bytes)).view());
    FAIL() << "stage 2 accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::BadValue);
  }
}

TEST(CheckpointCodec, InvalidDoneFlagIsRejected) {
  // The encoder normalizes flags to 0/1, so plant the hostile value in the
  // raw section bytes and rebuild the container around it. Flags start after
  // the four u64 preamble/count fields.
  const Snapshot good = Snapshot::from_bytes(serialize_runner_checkpoint(make_runner()));
  const auto payload = good.view().checkpoint_payload();
  std::string corrupted(payload.begin(), payload.end());
  corrupted[4 * sizeof(std::uint64_t) + 1] = 2;
  detail::RawSection section;
  section.kind = good.view().checkpoint_section_kind();
  section.bytes = std::move(corrupted);
  const std::string rebuilt = detail::assemble_snapshot_container({std::move(section)});
  try {
    decode_runner_checkpoint(Snapshot::from_bytes(std::string(rebuilt)).view());
    FAIL() << "done flag 2 accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::BadValue);
  }
}

TEST(CheckpointCodec, MismatchedVectorSizesAreRejectedAtEncodeTime) {
  ExploreCheckpoint c = make_explore(0);
  c.scale.pop_back();
  EXPECT_THROW(serialize_explore_checkpoint(c), SnapshotError);
  RunnerCheckpoint r = make_runner();
  r.runs.pop_back();
  EXPECT_THROW(serialize_runner_checkpoint(r), SnapshotError);
}

// --- Hostile bytes -----------------------------------------------------------

TEST(CheckpointCodec, EveryTruncationSurfacesAsTypedError) {
  for (const std::string& bytes : {serialize_explore_checkpoint(make_explore()),
                                   serialize_runner_checkpoint(make_runner())}) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      try {
        const Snapshot snap = Snapshot::from_bytes(bytes.substr(0, len));
        // Container may validate if the cut lands beyond the checksummed
        // region — then the payload decode must catch the short read.
        if (snap.view().checkpoint_section_kind() ==
            static_cast<std::uint32_t>(SnapshotSection::ExploreState)) {
          (void)decode_explore_checkpoint(snap.view());
        } else {
          (void)decode_runner_checkpoint(snap.view());
        }
        FAIL() << "truncation to " << len << " bytes accepted";
      } catch (const SnapshotError&) {
        // expected: typed error, never a crash or silent success
      }
    }
  }
}

TEST(CheckpointCodec, EverySingleByteFlipSurfacesAsTypedError) {
  const std::string good = serialize_explore_checkpoint(make_explore());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    try {
      const Snapshot snap = Snapshot::from_bytes(std::move(bad));
      (void)decode_explore_checkpoint(snap.view());
      FAIL() << "flip at byte " << i << " accepted";
    } catch (const SnapshotError&) {
      // expected
    }
  }
}

TEST(CheckpointCodec, PayloadFlipWithFixedChecksumNeverCrashes) {
  // Defeat the container checksum on purpose: flip one payload byte, then
  // recompute the stored FNV-1a over the checksummed region. The bounded
  // decoder must still either succeed or throw a typed error — never read
  // out of bounds (the ASan/UBSan CI leg gives this test its teeth).
  const std::string good = serialize_runner_checkpoint(make_runner());
  // Header layout: magic[8] version u32 checksum-lo u32 checksum-hi? — the
  // checksum field offset and coverage are container internals, so instead
  // of patching it we rebuild the container around the corrupted section.
  const Snapshot snap = Snapshot::from_bytes(std::string(good));
  const auto payload = snap.view().checkpoint_payload();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::string corrupted(payload.begin(), payload.end());
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0xFF);
    detail::RawSection section;
    section.kind = snap.view().checkpoint_section_kind();
    section.bytes = std::move(corrupted);
    const std::string rebuilt = detail::assemble_snapshot_container({std::move(section)});
    try {
      (void)decode_runner_checkpoint(Snapshot::from_bytes(std::string(rebuilt)).view());
    } catch (const SnapshotError&) {
      // fine — the flip hit a validated field
    }
  }
}

// --- CheckpointStore ---------------------------------------------------------

TEST_F(TempDir, StoreAlternatesSlotsAndKeepsSequenceMonotone) {
  CheckpointStore store(path("run.clrdb"));
  EXPECT_EQ(store.load_newest(), std::nullopt);
  EXPECT_EQ(store.next_sequence(), 1u);

  ExploreCheckpoint c = make_explore();
  c.sequence = 1;
  store.save(serialize_explore_checkpoint(c));
  EXPECT_TRUE(fs::exists(store.slot_a()));
  EXPECT_FALSE(fs::exists(store.slot_b()));
  EXPECT_EQ(store.next_sequence(), 2u);

  c.sequence = 2;
  store.save(serialize_explore_checkpoint(c));
  EXPECT_TRUE(fs::exists(store.slot_b()));

  c.sequence = 3;
  store.save(serialize_explore_checkpoint(c));

  // A fresh store (new process) must find the newest.
  CheckpointStore reopened(path("run.clrdb"));
  auto newest = reopened.load_newest();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(checkpoint_sequence(newest->view()), 3u);
  EXPECT_EQ(reopened.next_sequence(), 4u);
}

TEST_F(TempDir, StoreRejectsWrongSequence) {
  CheckpointStore store(path("run.clrdb"));
  ExploreCheckpoint c = make_explore();
  c.sequence = 7;  // store expects 1
  EXPECT_THROW(store.save(serialize_explore_checkpoint(c)), SnapshotError);
  EXPECT_FALSE(fs::exists(store.slot_a()));
  EXPECT_FALSE(fs::exists(store.slot_b()));
}

TEST_F(TempDir, CorruptNewestSlotFallsBackToSibling) {
  CheckpointStore store(path("run.clrdb"));
  ExploreCheckpoint c = make_explore();
  c.sequence = 1;
  store.save(serialize_explore_checkpoint(c));
  c.sequence = 2;
  store.save(serialize_explore_checkpoint(c));  // newest now in slot B

  // Simulate a torn write: truncate the newest slot mid-file.
  std::string torn = read_file(store.slot_b());
  torn.resize(torn.size() / 2);
  {
    std::ofstream out(store.slot_b(), std::ios::binary | std::ios::trunc);
    out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }

  CheckpointStore recovered(path("run.clrdb"));
  auto newest = recovered.load_newest();
  ASSERT_TRUE(newest.has_value()) << "sibling slot must still load";
  EXPECT_EQ(checkpoint_sequence(newest->view()), 1u);
  // The next save must go into the corrupt slot, preserving the good one.
  EXPECT_EQ(recovered.next_sequence(), 2u);
  c.sequence = 2;
  recovered.save(serialize_explore_checkpoint(c));
  CheckpointStore verify(path("run.clrdb"));
  auto latest = verify.load_newest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(checkpoint_sequence(latest->view()), 2u);
}

TEST_F(TempDir, BothSlotsCorruptMeansFreshStart) {
  CheckpointStore store(path("run.clrdb"));
  ExploreCheckpoint c = make_explore();
  c.sequence = 1;
  store.save(serialize_explore_checkpoint(c));
  {
    std::ofstream out(store.slot_a(), std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  CheckpointStore reopened(path("run.clrdb"));
  EXPECT_EQ(reopened.load_newest(), std::nullopt);
  EXPECT_EQ(reopened.next_sequence(), 1u);
}

TEST_F(TempDir, SlotOfAnotherVersionYieldsToAGoodSibling) {
  // A v3 slot is not loadable, but a good v4 sibling still wins, and the
  // next save goes over the v3 slot.
  const std::string v4 = read_fixture("runner_v4.clrdb");
  CheckpointStore store(path("run.clrdb"));
  write_file_durable(store.slot_a(), read_fixture("runner_v3.clrdb"));
  write_file_durable(store.slot_b(), v4);
  const auto newest = store.load_newest();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(serialize_runner_checkpoint(decode_runner_checkpoint(newest->view())), v4);
  const std::uint64_t sequence = checkpoint_sequence(newest->view());
  EXPECT_EQ(store.next_sequence(), sequence + 1);
  RunnerCheckpoint next = decode_runner_checkpoint(newest->view());
  next.sequence = sequence + 1;
  store.save(serialize_runner_checkpoint(next));
  EXPECT_EQ(read_file(store.slot_b()), v4);
  EXPECT_EQ(checkpoint_sequence(Snapshot::open(store.slot_a()).view()), sequence + 1);
}

TEST_F(TempDir, SlotOfAnotherVersionAloneIsRefusedAndKept) {
  // Without a loadable sibling, a resume must fail rather than start fresh
  // and overwrite a checkpoint this build cannot read.
  const std::string v3 = read_fixture("runner_v3.clrdb");
  for (const bool in_slot_a : {true, false}) {
    CheckpointStore store(path(in_slot_a ? "a.clrdb" : "b.clrdb"));
    const std::string slot = in_slot_a ? store.slot_a() : store.slot_b();
    write_file_durable(slot, v3);
    try {
      (void)store.load_newest();
      ADD_FAILURE() << "a lone v3 slot was treated as a fresh start";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::BadVersion);
      EXPECT_NE(std::string(e.what()).find("format version 3"), std::string::npos) << e.what();
    }
    EXPECT_EQ(read_file(slot), v3);
  }
}

TEST_F(TempDir, SaveValidatesBytesBeforeTouchingDisk) {
  CheckpointStore store(path("run.clrdb"));
  EXPECT_THROW(store.save("not a checkpoint container"), SnapshotError);
  EXPECT_FALSE(fs::exists(store.slot_a()));
  EXPECT_FALSE(fs::exists(store.slot_b()));
}

TEST_F(TempDir, CheckWritableFailsAsTheFirstSaveWouldAndLeavesNothing) {
  CheckpointStore store(path("run.clrdb"));
  store.check_writable();
  EXPECT_TRUE(fs::is_empty(dir_)) << "the probe must remove its tmp file";

  CheckpointStore missing(path("no_such_dir/run.clrdb"));
  try {
    missing.check_writable();
    FAIL() << "probe of a missing directory succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::Io);
    EXPECT_EQ(std::string(e.what()),
              "snapshot: cannot open " + missing.slot_a() + ".tmp for writing");
  }
}

// --- Durable writes ----------------------------------------------------------

TEST_F(TempDir, DurableWriteFailureLeavesGoodFileUntouchedAndNoTmp) {
  // Force the tmp-file open to fail (EISDIR: a directory squats on the tmp
  // path). The existing good file must survive byte-identical and the
  // failure must not leave stray tmp litter behind.
  const std::string target = path("snap.clrdb");
  write_file_durable(target, "good bytes");
  ASSERT_EQ(read_file(target), "good bytes");

  fs::create_directories(target + ".tmp");
  try {
    write_file_durable(target, "replacement");
    FAIL() << "write through a squatting directory succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::Io);
  }
  EXPECT_EQ(read_file(target), "good bytes");
  fs::remove_all(target + ".tmp");

  // And after clearing the obstruction the same path works again.
  write_file_durable(target, "replacement");
  EXPECT_EQ(read_file(target), "replacement");
  EXPECT_FALSE(fs::exists(target + ".tmp")) << "tmp file must not outlive the rename";
}

// --- Fixtures from older writers ---------------------------------------------

TEST(CheckpointFixtures, RunnerV4ReserializesToItsOwnBytes) {
  const std::string bytes = read_fixture("runner_v4.clrdb");
  const Snapshot snap = Snapshot::from_bytes(std::string(bytes));
  const RunnerCheckpoint c = decode_runner_checkpoint(snap.view());
  EXPECT_EQ(c.done, (std::vector<std::uint8_t>{1, 0, 0}));
  EXPECT_EQ(serialize_runner_checkpoint(c), bytes);
}

TEST(CheckpointFixtures, FleetV4ReserializesToItsOwnBytes) {
  const std::string bytes = read_fixture("fleet_v4.clrdb");
  const Snapshot snap = Snapshot::from_bytes(std::string(bytes));
  const FleetCheckpoint c = decode_fleet_checkpoint(snap.view());
  EXPECT_EQ(c.progress.done, (std::vector<std::uint8_t>{1, 1, 0}));
  EXPECT_EQ(serialize_fleet_checkpoint(c), bytes);
}

}  // namespace
}  // namespace clr::io
