#include "dse/design_db.hpp"

#include <gtest/gtest.h>

#include "io/snapshot.hpp"

namespace clr::dse {
namespace {

DesignPoint make_point(double energy, double makespan, double func_rel, int tag = 0) {
  DesignPoint p;
  p.energy = energy;
  p.makespan = makespan;
  p.func_rel = func_rel;
  // Distinct configurations via the priority field.
  p.config.tasks.resize(1);
  p.config.tasks[0].priority = tag;
  return p;
}

TEST(DesignDb, AddAndQuery) {
  DesignDb db;
  EXPECT_TRUE(db.empty());
  const auto i = db.add(make_point(10, 100, 0.9, 1));
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_DOUBLE_EQ(db.point(0).energy, 10.0);
}

TEST(DesignDb, DeduplicatesByConfiguration) {
  DesignDb db;
  db.add(make_point(10, 100, 0.9, 1));
  const auto again = db.add(make_point(99, 999, 0.1, 1));  // same config tag
  EXPECT_EQ(again, 0u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_DOUBLE_EQ(db.point(0).energy, 10.0);  // first insert wins
}

/// FEAS set of `spec` through the compaction scan, as a vector.
std::vector<std::size_t> feasible(const DesignDb& db, const QosSpec& spec,
                                  const std::vector<bool>* alive = nullptr) {
  std::vector<std::size_t> out(db.size());
  out.resize(db.feasible_into(spec, out, alive));
  return out;
}

TEST(DesignDb, FeasibleIndices) {
  DesignDb db;
  db.add(make_point(1, 100, 0.95, 1));
  db.add(make_point(2, 200, 0.99, 2));
  db.add(make_point(3, 50, 0.90, 3));
  const auto feas = feasible(db, QosSpec{150.0, 0.94});
  EXPECT_EQ(feas, (std::vector<std::size_t>{0}));
  const auto all = feasible(db, QosSpec{500.0, 0.0});
  EXPECT_EQ(all.size(), 3u);
  const auto none = feasible(db, QosSpec{10.0, 0.999});
  EXPECT_TRUE(none.empty());
}

/// The metric columns hold exactly the stored points' metrics, in order.
void expect_columns_match_points(const DesignDb& db) {
  ASSERT_EQ(db.makespans().size(), db.size());
  ASSERT_EQ(db.func_rels().size(), db.size());
  ASSERT_EQ(db.energies().size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.makespans()[i], db.point(i).makespan) << "point " << i;
    EXPECT_EQ(db.func_rels()[i], db.point(i).func_rel) << "point " << i;
    EXPECT_EQ(db.energies()[i], db.point(i).energy) << "point " << i;
  }
}

TEST(DesignDb, MetricColumnsFollowThePoints) {
  DesignDb db;
  db.reserve(6);
  expect_columns_match_points(db);
  for (int i = 0; i < 6; ++i) {
    DesignPoint p = make_point(10.0 + i, 100.0 - i, 0.9 + 0.01 * i, i);
    p.config.tasks[0].pe = static_cast<plat::PeId>(i % 3);
    db.add(std::move(p));
  }
  // Re-adding stored configurations with other metrics changes nothing.
  for (int i : {1, 4}) {
    DesignPoint dup = make_point(999.0, 999.0, 0.1, i);
    dup.config.tasks[0].pe = static_cast<plat::PeId>(i % 3);
    EXPECT_EQ(db.add(std::move(dup)), static_cast<std::size_t>(i));
  }
  ASSERT_EQ(db.size(), 6u);
  expect_columns_match_points(db);

  const DesignDb survivors = db.without_pe(1);  // drops the points tagged 1 and 4
  ASSERT_EQ(survivors.size(), 4u);
  expect_columns_match_points(survivors);

  const DesignDb copy = db;
  expect_columns_match_points(copy);
  EXPECT_EQ(copy.makespans(), db.makespans());

  const rel::ClrSpace space{rel::ClrGranularity::Full};
  const io::LoadedSnapshot loaded =
      io::materialize(io::Snapshot::from_bytes(io::serialize_snapshot(db, space)).view());
  ASSERT_EQ(loaded.db.size(), db.size());
  expect_columns_match_points(loaded.db);
  EXPECT_EQ(loaded.db.energies(), db.energies());
}

TEST(DesignDb, LeastViolatingPrefersFeasible) {
  DesignDb db;
  db.add(make_point(1, 1000, 0.5, 1));   // violates both
  db.add(make_point(2, 100, 0.95, 2));   // feasible
  EXPECT_EQ(db.least_violating(QosSpec{150.0, 0.9}), 1u);
}

TEST(DesignDb, LeastViolatingPicksSmallestViolation) {
  DesignDb db;
  db.add(make_point(1, 200, 0.95, 1));  // makespan 33% over
  db.add(make_point(2, 160, 0.95, 2));  // makespan 6.7% over
  EXPECT_EQ(db.least_violating(QosSpec{150.0, 0.9}), 1u);
}

TEST(DesignDb, LeastViolatingThrowsOnEmpty) {
  DesignDb db;
  EXPECT_THROW(db.least_violating(QosSpec{1.0, 0.5}), std::logic_error);
}

TEST(DesignDb, RangesSpanAllPoints) {
  DesignDb db;
  db.add(make_point(10, 100, 0.90, 1));
  db.add(make_point(30, 80, 0.99, 2));
  const auto r = db.ranges();
  EXPECT_DOUBLE_EQ(r.energy_min, 10.0);
  EXPECT_DOUBLE_EQ(r.energy_max, 30.0);
  EXPECT_DOUBLE_EQ(r.makespan_min, 80.0);
  EXPECT_DOUBLE_EQ(r.makespan_max, 100.0);
  EXPECT_DOUBLE_EQ(r.func_rel_min, 0.90);
  EXPECT_DOUBLE_EQ(r.func_rel_max, 0.99);
}

TEST(DesignDb, NumExtraCountsFlag) {
  DesignDb db;
  auto p = make_point(1, 1, 0.5, 1);
  p.extra = true;
  db.add(p);
  db.add(make_point(2, 2, 0.6, 2));
  EXPECT_EQ(db.num_extra(), 1u);
}

TEST(DesignDb, ConfigurationsExportsAll) {
  DesignDb db;
  db.add(make_point(1, 1, 0.5, 1));
  db.add(make_point(2, 2, 0.6, 2));
  EXPECT_EQ(db.configurations().size(), 2u);
}

TEST(DesignDb, PeBoundIsOnePastTheLargestBoundPe) {
  DesignDb db;
  EXPECT_EQ(db.pe_bound(), 0u);
  DesignPoint none = make_point(1, 1, 0.5, 1);
  none.config.tasks.clear();  // binds no PE
  db.add(none);
  EXPECT_EQ(db.pe_bound(), 0u);
  DesignPoint p = make_point(1, 1, 0.5, 2);
  p.config.tasks.resize(3);
  p.config.tasks[1].pe = 7;
  p.config.tasks[2].pe = 3;
  db.add(p);
  EXPECT_EQ(db.pe_bound(), 8u);
  db.add(make_point(2, 2, 0.6, 3));  // PE 0 only: the bound stays
  EXPECT_EQ(db.pe_bound(), 8u);
  EXPECT_EQ(db.without_pe(7).pe_bound(), 1u);  // the survivors bind PE 0 only
  const DesignDb copy = db;
  EXPECT_EQ(copy.pe_bound(), 8u);
}

TEST(DesignDb, SummaryMentionsCounts) {
  DesignDb db;
  db.add(make_point(1, 1, 0.5, 1));
  EXPECT_NE(db.summary().find("1 points"), std::string::npos);
}

TEST(HashConfiguration, EqualConfigsHashEqually) {
  sched::Configuration a;
  a.tasks.resize(3);
  a.tasks[1].pe = 2;
  a.tasks[1].impl_index = 4;
  a.tasks[2].clr_index = 1;
  a.tasks[2].priority = -7;
  sched::Configuration b = a;
  EXPECT_EQ(hash_configuration(a), hash_configuration(b));
  b.tasks[0].priority = 1;
  EXPECT_NE(hash_configuration(a), hash_configuration(b));  // overwhelmingly likely
}

TEST(DesignDb, HashedIndexMatchesLinearScanDedup) {
  // Property check of the FNV-bucketed duplicate index: inserting a stream of
  // part-fresh / part-duplicate multi-task configurations must behave exactly
  // like the original linear scan — same returned index per insert, same
  // final contents, first insert winning each duplicate group.
  DesignDb db;
  std::vector<sched::Configuration> reference;  // linear-scan ground truth
  std::uint64_t lcg = 88172645463325252ULL;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  for (int round = 0; round < 400; ++round) {
    DesignPoint p;
    p.energy = static_cast<double>(round);
    p.config.tasks.resize(1 + next() % 4);
    for (auto& t : p.config.tasks) {
      t.pe = static_cast<plat::PeId>(next() % 3);
      t.impl_index = static_cast<std::uint32_t>(next() % 3);
      t.clr_index = static_cast<std::uint32_t>(next() % 2);
      t.priority = static_cast<int>(next() % 2);
    }
    std::size_t expected = reference.size();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (reference[i] == p.config) {
        expected = i;
        break;
      }
    }
    if (expected == reference.size()) reference.push_back(p.config);
    EXPECT_EQ(db.add(p), expected) << "round " << round;
  }
  ASSERT_EQ(db.size(), reference.size());
  EXPECT_LT(db.size(), 400u);  // the modulus guarantees actual duplicates
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE(db.point(i).config == reference[i]);
  }
}

TEST(DesignPoint, FeasibleFor) {
  const auto p = make_point(5, 100, 0.95);
  EXPECT_TRUE(p.feasible_for(QosSpec{100.0, 0.95}));
  EXPECT_FALSE(p.feasible_for(QosSpec{99.0, 0.95}));
  EXPECT_FALSE(p.feasible_for(QosSpec{100.0, 0.96}));
}

}  // namespace
}  // namespace clr::dse
