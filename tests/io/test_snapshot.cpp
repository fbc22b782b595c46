#include "io/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "experiments/app.hpp"
#include "experiments/flow.hpp"
#include "experiments/runner.hpp"
#include "io/serialize.hpp"

namespace clr::io {
namespace {

// --- Fixture ----------------------------------------------------------------

/// Small hand-built database: deterministic, instant, and irregular enough
/// (ragged assignment rows, negative priorities, extra flags) to exercise
/// every column of the format.
struct Fixture {
  rel::ClrSpace space{rel::ClrGranularity::Full};
  dse::DesignDb db;
  rt::DrcMatrix drc{0, {}};
};

Fixture make_fixture(std::size_t points = 5) {
  Fixture f;
  for (std::size_t i = 0; i < points; ++i) {
    dse::DesignPoint p;
    p.energy = 100.0 + 3.25 * static_cast<double>(i);
    p.makespan = 50.0 - 0.5 * static_cast<double>(i);
    p.func_rel = 0.999 - 1e-4 * static_cast<double>(i);
    p.extra = (i % 2) == 1;
    p.config.tasks.resize(2 + i % 3);
    for (std::size_t t = 0; t < p.config.tasks.size(); ++t) {
      auto& a = p.config.tasks[t];
      a.pe = static_cast<plat::PeId>((i + t) % 4);
      a.impl_index = static_cast<std::uint32_t>(t % 2);
      a.clr_index = static_cast<std::uint32_t>((7 * i + t) % f.space.size());
      a.priority = static_cast<std::int32_t>(t) - 1;
    }
    f.db.add(std::move(p));
  }
  std::vector<double> costs(points * points);
  for (std::size_t i = 0; i < costs.size(); ++i) costs[i] = 0.125 * static_cast<double>(i);
  f.drc = rt::DrcMatrix(points, std::move(costs));
  return f;
}

void expect_equal(const dse::DesignDb& a, const dse::DesignDb& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.point(i).config, b.point(i).config) << "point " << i;
    EXPECT_DOUBLE_EQ(a.point(i).energy, b.point(i).energy);
    EXPECT_DOUBLE_EQ(a.point(i).makespan, b.point(i).makespan);
    EXPECT_DOUBLE_EQ(a.point(i).func_rel, b.point(i).func_rel);
    EXPECT_EQ(a.point(i).extra, b.point(i).extra);
  }
}

/// Patch a little-endian scalar into a byte image.
template <typename T>
void patch(std::string& bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof value, bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

SnapshotError::Kind kind_of(const std::string& bytes) {
  try {
    (void)Snapshot::from_bytes(std::string(bytes));
  } catch (const SnapshotError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected SnapshotError";
  return SnapshotError::Kind::Io;
}

// --- Round trips -------------------------------------------------------------

TEST(Snapshot, RoundTripsDbSpaceAndDrc) {
  const Fixture f = make_fixture();
  const Snapshot snap = Snapshot::from_bytes(serialize_snapshot(f.db, f.space, &f.drc));
  EXPECT_EQ(snap.view().version(), kSnapshotVersion);
  EXPECT_EQ(snap.view().num_points(), f.db.size());
  const LoadedSnapshot loaded = materialize(snap.view());
  expect_equal(loaded.db, f.db);
  ASSERT_EQ(loaded.space.size(), f.space.size());
  for (std::size_t i = 0; i < f.space.size(); ++i) {
    EXPECT_EQ(loaded.space.config(i), f.space.config(i)) << "config " << i;
  }
  ASSERT_TRUE(loaded.drc.has_value());
  ASSERT_EQ(loaded.drc->size(), f.db.size());
  for (std::size_t i = 0; i < f.db.size(); ++i) {
    for (std::size_t j = 0; j < f.db.size(); ++j) {
      EXPECT_DOUBLE_EQ(loaded.drc->drc(i, j), f.drc.drc(i, j));
    }
  }
}

TEST(Snapshot, RoundTripsWithoutDrcSection) {
  const Fixture f = make_fixture();
  const Snapshot snap = Snapshot::from_bytes(serialize_snapshot(f.db, f.space));
  EXPECT_FALSE(snap.view().has_drc());
  const LoadedSnapshot loaded = materialize(snap.view());
  expect_equal(loaded.db, f.db);
  EXPECT_FALSE(loaded.drc.has_value());
}

TEST(Snapshot, RoundTripsEmptyDatabase) {
  const rel::ClrSpace space(rel::ClrGranularity::Full);
  const dse::DesignDb empty;
  const LoadedSnapshot loaded =
      materialize(Snapshot::from_bytes(serialize_snapshot(empty, space)).view());
  EXPECT_EQ(loaded.db.size(), 0u);
  EXPECT_EQ(loaded.space.size(), space.size());
}

TEST(Snapshot, FileRoundTripUsesTheZeroCopyMapping) {
  const Fixture f = make_fixture();
  const auto path = (std::filesystem::temp_directory_path() / "clr_snap_test.clrdb").string();
  save_snapshot(path, f.db, f.space, &f.drc);
  {
    const Snapshot snap = Snapshot::open(path);
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_TRUE(snap.is_mapped());
#endif
    expect_equal(materialize(snap.view()).db, f.db);
  }
  std::filesystem::remove(path);
}

TEST(Snapshot, LoadDesignDbDispatchesOnMagicNotExtension) {
  const Fixture f = make_fixture();
  // A snapshot stored under a .json name must still load through the binary
  // path (content sniffing, not extension trust).
  const auto path = (std::filesystem::temp_directory_path() / "clr_snap_test.json").string();
  save_snapshot(path, f.db, f.space);
  const LoadedDesignDb loaded = load_design_db(path);
  expect_equal(loaded.db, f.db);
  EXPECT_EQ(loaded.space.size(), f.space.size());
  std::filesystem::remove(path);
}

TEST(Snapshot, LoadDesignDbKeepsTheStoredDrcMatrix) {
  // clrtool's one read path: a .clrdb's cost table must survive the load so
  // simulate/fleet skip the rebuild; JSON and drc-less snapshots carry none.
  const Fixture f = make_fixture();
  const auto dir = std::filesystem::temp_directory_path();
  const auto with = (dir / "clr_snap_drc.clrdb").string();
  const auto without = (dir / "clr_snap_nodrc.clrdb").string();
  const auto json = (dir / "clr_snap_drc.json").string();
  save_snapshot(with, f.db, f.space, &f.drc);
  save_snapshot(without, f.db, f.space);
  save_design_db(json, f.db, f.space);

  const LoadedDesignDb loaded = load_design_db(with);
  ASSERT_TRUE(loaded.drc.has_value());
  ASSERT_EQ(loaded.drc->size(), f.db.size());
  for (std::size_t i = 0; i < f.db.size(); ++i) {
    for (std::size_t j = 0; j < f.db.size(); ++j) {
      EXPECT_EQ(loaded.drc->drc(i, j), f.drc.drc(i, j));
    }
  }
  EXPECT_FALSE(load_design_db(without).drc.has_value());
  EXPECT_FALSE(load_design_db(json).drc.has_value());
  for (const auto& path : {with, without, json}) std::filesystem::remove(path);
}

TEST(Snapshot, PathAndMagicHelpers) {
  EXPECT_TRUE(is_snapshot_path("out/db.clrdb"));
  EXPECT_FALSE(is_snapshot_path("out/db.json"));
  EXPECT_FALSE(is_snapshot_path("clrdb"));
  const Fixture f = make_fixture(1);
  EXPECT_TRUE(has_snapshot_magic(serialize_snapshot(f.db, f.space)));
  EXPECT_FALSE(has_snapshot_magic("{\"version\": 1}"));
  EXPECT_FALSE(has_snapshot_magic(""));
}

// --- Version gating ----------------------------------------------------------

TEST(Snapshot, WriterRejectsUnknownVersion) {
  const Fixture f = make_fixture(1);
  try {
    (void)serialize_snapshot_for_version(7, f.db, f.space, nullptr);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::BadVersion);
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos);
  }
}

TEST(Snapshot, ReaderRejectsVersionFromTheFutureWithFoundVsSupported) {
  const Fixture f = make_fixture(1);
  std::string bytes = serialize_snapshot(f.db, f.space);
  patch<std::uint32_t>(bytes, 8, kSnapshotVersion + 1);
  try {
    (void)Snapshot::from_bytes(std::move(bytes));
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::BadVersion);
    const std::string message = e.what();
    EXPECT_NE(message.find("version " + std::to_string(kSnapshotVersion + 1)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("supports 1.." + std::to_string(kSnapshotVersion)),
              std::string::npos)
        << message;
  }
}

TEST(Snapshot, ReaderRejectsVersionZero) {
  const Fixture f = make_fixture(1);
  std::string bytes = serialize_snapshot(f.db, f.space);
  patch<std::uint32_t>(bytes, 8, 0);
  EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::BadVersion);
}

// --- Hostile input ----------------------------------------------------------

TEST(SnapshotFuzz, RejectsNonSnapshotBytes) {
  EXPECT_EQ(kind_of(std::string{}), SnapshotError::Kind::Truncated);
  EXPECT_EQ(kind_of(std::string("\x89vers")), SnapshotError::Kind::Truncated);
  EXPECT_EQ(kind_of(std::string("{\"version\": 1, \"points\": []}")),
            SnapshotError::Kind::BadMagic);
  EXPECT_EQ(kind_of(std::string(4096, '\0')), SnapshotError::Kind::BadMagic);
}

TEST(SnapshotFuzz, TruncationAtEveryLengthThrows) {
  const Fixture f = make_fixture(3);
  const std::string good = serialize_snapshot(f.db, f.space, &f.drc);
  // Every proper prefix — which covers every section boundary — must fail
  // cleanly (and never read past the buffer; this suite runs under ASan).
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)Snapshot::from_bytes(good.substr(0, len)), SnapshotError)
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(SnapshotFuzz, TrailingGarbageThrows) {
  const Fixture f = make_fixture(2);
  std::string bytes = serialize_snapshot(f.db, f.space);
  bytes.append(16, '\xAB');
  EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::Truncated);
}

TEST(SnapshotFuzz, EveryByteFlipThrows) {
  const Fixture f = make_fixture(3);
  const std::string good = serialize_snapshot(f.db, f.space, &f.drc);
  // Exhaustive single-byte corruption: every flip must surface as a typed
  // error — payload flips via the checksum, header/table flips structurally.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bytes = good;
    bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
    EXPECT_THROW((void)Snapshot::from_bytes(std::move(bytes)), SnapshotError)
        << "flip at byte " << i << " accepted";
  }
}

TEST(SnapshotFuzz, PayloadFlipReportsChecksumMismatch) {
  const Fixture f = make_fixture(2);
  std::string bytes = serialize_snapshot(f.db, f.space);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::Checksum);
}

TEST(SnapshotFuzz, OversizedSectionLengthIsBounds) {
  const Fixture f = make_fixture(2);
  const std::string good = serialize_snapshot(f.db, f.space, &f.drc);
  const auto section_count = [&] {
    std::uint32_t n = 0;
    std::memcpy(&n, good.data() + 32, sizeof n);
    return n;
  }();
  ASSERT_EQ(section_count, 3u);
  // The table is outside the checksummed payload, so a hostile size edit is
  // reported precisely as a bounds error, per section.
  for (std::uint32_t s = 0; s < section_count; ++s) {
    std::string bytes = good;
    patch<std::uint64_t>(bytes, 40 + 24 * s + 16, std::uint64_t{1} << 60);
    EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::Bounds) << "section " << s;
  }
}

TEST(SnapshotFuzz, SectionOffsetEscapingTheFileIsBounds) {
  const Fixture f = make_fixture(2);
  std::string bytes = serialize_snapshot(f.db, f.space);
  patch<std::uint64_t>(bytes, 40 + 8, bytes.size() + 8);  // section 0 offset
  EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::Bounds);
}

TEST(SnapshotFuzz, MisalignedSectionOffsetIsBounds) {
  const Fixture f = make_fixture(2);
  std::string bytes = serialize_snapshot(f.db, f.space);
  std::uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + 40 + 8, sizeof offset);
  patch<std::uint64_t>(bytes, 40 + 8, offset + 4);
  EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::Bounds);
}

TEST(SnapshotFuzz, NonzeroFlagsRejected) {
  const Fixture f = make_fixture(1);
  std::string bytes = serialize_snapshot(f.db, f.space);
  patch<std::uint32_t>(bytes, 12, 0x80000000u);
  EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::BadValue);
}

TEST(SnapshotFuzz, UnknownSectionKindRejected) {
  const Fixture f = make_fixture(1);
  std::string bytes = serialize_snapshot(f.db, f.space);
  patch<std::uint32_t>(bytes, 40, 99);  // section 0 kind
  EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::BadValue);
}

TEST(SnapshotFuzz, MissingRequiredSectionRejected) {
  const Fixture f = make_fixture(1);
  std::string bytes = serialize_snapshot(f.db, f.space);
  // Claim the ClrSpace section is a (valid, same-shape) duplicate check bait:
  // rewriting kind 1 -> 3 both drops a required section and leaves a DrcMatrix
  // with the wrong geometry; the required-section check must fire first.
  patch<std::uint32_t>(bytes, 40, 3);
  EXPECT_EQ(kind_of(bytes), SnapshotError::Kind::BadValue);
}

// --- MdpPolicy section (format version 4) ------------------------------------

/// Hand-built table sized to the fixture database: irregular values, every
/// policy entry exercised, no offline solve needed.
rt::MdpTable make_mdp_table(std::size_t points) {
  rt::MdpTable t;
  t.makespan_bins = 3;
  t.func_rel_bins = 2;
  t.num_points = points;
  t.gamma = 0.9375;
  t.p_rc = 0.4;
  t.ranges.makespan_min = 48.0;
  t.ranges.makespan_max = 50.0;
  t.ranges.func_rel_min = 0.9985;
  t.ranges.func_rel_max = 0.999;
  t.ranges.energy_min = 100.0;
  t.ranges.energy_max = 113.0;
  t.policy.resize(t.num_states());
  t.values.resize(t.num_states());
  for (std::size_t s = 0; s < t.num_states(); ++s) {
    t.policy[s] = static_cast<std::uint32_t>((s * 7 + 1) % points);
    t.values[s] = 0.25 * static_cast<double>(s) - 3.5;
  }
  return t;
}

TEST(SnapshotMdp, RoundTripsTheMdpPolicySection) {
  const Fixture f = make_fixture();
  const rt::MdpTable table = make_mdp_table(f.db.size());
  const Snapshot snap =
      Snapshot::from_bytes(serialize_snapshot(f.db, f.space, &f.drc, &table));
  ASSERT_TRUE(snap.view().has_mdp());
  const LoadedSnapshot loaded = materialize(snap.view());
  expect_equal(f.db, loaded.db);
  ASSERT_TRUE(loaded.mdp.has_value());
  // Defaulted operator==: every scalar, range bound, policy entry and value
  // compared bit-for-bit.
  EXPECT_EQ(*loaded.mdp, table);
}

TEST(SnapshotMdp, FilesWithoutTheSectionLoadWithNoTable) {
  const Fixture f = make_fixture();
  const LoadedSnapshot loaded =
      materialize(Snapshot::from_bytes(serialize_snapshot(f.db, f.space, &f.drc)).view());
  EXPECT_FALSE(loaded.mdp.has_value());
}

TEST(SnapshotMdp, OlderFormatVersionsStillLoadAndNeverCarryATable) {
  const Fixture f = make_fixture();
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    const std::string bytes =
        serialize_snapshot_for_version(version, f.db, f.space, version >= 2 ? &f.drc : nullptr);
    const LoadedSnapshot loaded = materialize(Snapshot::from_bytes(std::string(bytes)).view());
    expect_equal(f.db, loaded.db);
    EXPECT_FALSE(loaded.mdp.has_value()) << "version " << version;
  }
}

TEST(SnapshotMdp, WriterRefusesTheSectionBelowVersionFour) {
  const Fixture f = make_fixture();
  const rt::MdpTable table = make_mdp_table(f.db.size());
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    try {
      (void)serialize_snapshot_for_version(version, f.db, f.space, nullptr, &table);
      ADD_FAILURE() << "version " << version << " accepted an MdpPolicy section";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::BadVersion);
    }
  }
}

TEST(SnapshotMdp, WriterRefusesATableSizedForADifferentDatabase) {
  const Fixture f = make_fixture();
  const rt::MdpTable table = make_mdp_table(f.db.size() + 1);
  try {
    (void)serialize_snapshot(f.db, f.space, nullptr, &table);
    ADD_FAILURE() << "num_points mismatch accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::BadValue);
  }
}

TEST(SnapshotMdp, TruncationAtEveryLengthThrows) {
  const Fixture f = make_fixture(2);
  const rt::MdpTable table = make_mdp_table(2);
  const std::string good = serialize_snapshot(f.db, f.space, nullptr, &table);
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)Snapshot::from_bytes(good.substr(0, len)), SnapshotError)
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(SnapshotMdp, EveryByteFlipThrows) {
  const Fixture f = make_fixture(2);
  const rt::MdpTable table = make_mdp_table(2);
  const std::string good = serialize_snapshot(f.db, f.space, &f.drc, &table);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bytes = good;
    bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
    EXPECT_THROW((void)Snapshot::from_bytes(std::move(bytes)), SnapshotError)
        << "flip at byte " << i << " accepted";
  }
}

TEST(SnapshotMdp, SectionCannotRideWithACheckpoint) {
  // Rewriting the MdpPolicy table entry (section index 3, last) to a
  // checkpoint kind produces a file mixing checkpoint and design-db sections;
  // the only-section shape rule (or the checkpoint payload decode) must
  // reject it no matter which fires first.
  const Fixture f = make_fixture(2);
  const rt::MdpTable table = make_mdp_table(2);
  const std::string good = serialize_snapshot(f.db, f.space, &f.drc, &table);
  for (const std::uint32_t checkpoint_kind : {5u, 6u, 7u}) {
    std::string bytes = good;
    patch<std::uint32_t>(bytes, 40 + 24 * 3, checkpoint_kind);
    EXPECT_THROW((void)Snapshot::from_bytes(std::move(bytes)), SnapshotError)
        << "kind " << checkpoint_kind;
  }
}

TEST(SnapshotMdp, FileRoundTripPreservesTheTable) {
  const Fixture f = make_fixture();
  const rt::MdpTable table = make_mdp_table(f.db.size());
  const auto path =
      (std::filesystem::temp_directory_path() / "clr_snapshot_mdp_test.clrdb").string();
  save_snapshot(path, f.db, f.space, &f.drc, &table);
  const LoadedSnapshot loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.mdp.has_value());
  EXPECT_EQ(*loaded.mdp, table);
  std::filesystem::remove(path);
}

// --- End-to-end equivalence ---------------------------------------------------

TEST(SnapshotRunner, GridResultsBitIdenticalToJsonPathAtAnyJobCount) {
  const auto app = exp::make_synthetic_app(8, 0x51AB);
  exp::FlowParams params;
  params.dse.base_ga.population = 24;
  params.dse.base_ga.generations = 10;
  params.dse.red_ga.population = 12;
  params.dse.red_ga.generations = 5;
  params.dse.max_red_seeds = 2;
  util::Rng rng(1);
  const auto flow = exp::run_design_flow(*app, params, rng);

  recfg::ReconfigModel reconfig(app->platform(), app->impls());
  const rt::DrcMatrix drc(flow.red, reconfig);
  const std::string bytes = serialize_snapshot(flow.red, app->clr_space(), &drc);
  const Snapshot snap = Snapshot::from_bytes(std::string(bytes));
  const LoadedSnapshot from_snapshot = materialize(snap.view());
  ASSERT_TRUE(from_snapshot.drc.has_value());

  const LoadedDesignDb from_json =
      design_db_from_json(Json::parse(to_json(flow.red, app->clr_space()).dump(2)));

  const dse::MetricRanges box = exp::qos_ranges(flow);
  exp::RuntimeEvalParams eval;
  eval.kind = exp::PolicyKind::Ura;
  eval.sim.total_cycles = 2e4;

  std::vector<exp::ReplicatedStats> results;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    for (const bool use_snapshot : {true, false}) {
      exp::RunnerConfig config;
      config.replications = 3;
      config.jobs = jobs;
      exp::Runner runner(config);
      exp::RunnerCell cell;
      cell.app = app.get();
      cell.db = use_snapshot ? &from_snapshot.db : &from_json.db;
      if (use_snapshot) cell.drc = &*from_snapshot.drc;
      cell.ranges = box;
      cell.params = eval;
      cell.seed = 42;
      runner.add_cell(std::move(cell));
      results.push_back(runner.run().front().stats);
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "run " << i;
  }
}

}  // namespace
}  // namespace clr::io
