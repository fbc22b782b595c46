// rt::DecisionTable (DESIGN.md §5.16): its cell→class map against brute
// force — two cells share a class exactly when their FEAS sets are equal, and
// a cell has no class exactly when its FEAS is empty — its a/b counts against
// the scan's own predicate, and the binding checks of the policies that use
// it. The table-backed decisions themselves are checked against the
// reference oracle in test_decision_differential.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/policy.hpp"

namespace clr::rt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Sizes around the word boundaries, plus the single-point database.
constexpr std::size_t kSizes[] = {1, 2, 3, 63, 64, 65, 127, 128, 129, 200};

dse::DesignDb make_db(util::Rng& rng, std::size_t n, bool grid) {
  dse::DesignDb db;
  for (std::size_t i = 0; i < n; ++i) {
    dse::DesignPoint p;
    // A 5-step grid gives duplicate makespans and func_rels.
    p.makespan = grid ? 50.0 + 10.0 * static_cast<double>(rng.index(5)) : rng.uniform(50.0, 150.0);
    p.func_rel = grid ? 0.9 + 0.02 * static_cast<double>(rng.index(5)) : rng.uniform(0.9, 1.0);
    p.energy = rng.uniform(10.0, 100.0);
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = static_cast<std::int32_t>(i);
    db.add(std::move(p));
  }
  return db;
}

DrcMatrix free_moves(std::size_t n) { return DrcMatrix(n, std::vector<double>(n * n, 0.0)); }

std::size_t count_makespans_within(const dse::DesignDb& db, double max_makespan) {
  std::size_t a = 0;
  for (const double s : db.makespans()) a += s <= max_makespan;
  return a;
}

std::size_t count_func_rels_within(const dse::DesignDb& db, double min_func_rel) {
  std::size_t b = 0;
  for (const double f : db.func_rels()) b += f >= min_func_rel;
  return b;
}

/// The stored points satisfying `spec`, as a membership mask.
std::vector<bool> feas_of(const dse::DesignDb& db, const dse::QosSpec& spec) {
  std::vector<bool> in(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    in[i] = spec.satisfied_by(db.makespans()[i], db.func_rels()[i]);
  }
  return in;
}

TEST(DecisionTable, CellsShareAClassExactlyWhenTheirFeasSetsAreEqual) {
  constexpr std::size_t kCases = 30;
  util::Rng rng(0xFEA5u);
  std::size_t with_nan = 0;
  for (std::size_t ci = 0; ci < kCases; ++ci) {
    const std::size_t n = ci < std::size(kSizes) ? kSizes[ci] : 1 + rng.index(120);
    dse::DesignDb db = make_db(rng, n, ci % 2 == 0);
    if (ci % 5 == 4) {
      // One stored metric is NaN: that point is in no FEAS set.
      dse::DesignDb copy;
      const std::size_t victim = rng.index(n);
      for (std::size_t i = 0; i < n; ++i) {
        dse::DesignPoint p = db.point(i);
        if (i == victim) (ci % 10 == 4 ? p.makespan : p.func_rel) = kNaN;
        copy.add(std::move(p));
      }
      db = std::move(copy);
      ++with_nan;
    }
    const DrcMatrix drc = free_moves(n);
    const DecisionTable table(db, drc, 0.5, 0.0);
    const std::string where = "case " + std::to_string(ci) + " (n " + std::to_string(n) + ")";

    // The cells are indexed by the makespans ascending and the func_rels
    // descending; cell (a, b) is FEAS at the a-th and b-th of them.
    std::vector<double> makespans, func_rels;
    for (const double s : db.makespans()) {
      if (!std::isnan(s)) makespans.push_back(s);
    }
    for (const double f : db.func_rels()) {
      if (!std::isnan(f)) func_rels.push_back(f);
    }
    std::sort(makespans.begin(), makespans.end());
    std::sort(func_rels.begin(), func_rels.end(), std::greater<double>());

    std::map<std::vector<bool>, std::uint32_t> class_of_set;
    std::vector<std::vector<bool>> set_of_class(table.num_classes());
    for (std::size_t a = 0; a <= makespans.size(); ++a) {
      for (std::size_t b = 0; b <= func_rels.size(); ++b) {
        const double s = a == 0 ? -kInf : makespans[a - 1];
        const double f = b == 0 ? kInf : func_rels[b - 1];
        const std::vector<bool> feas =
            a == 0 || b == 0 ? std::vector<bool>(n, false) : feas_of(db, dse::QosSpec{s, f});
        const std::uint32_t cls = table.class_of(a, b);
        if (std::find(feas.begin(), feas.end(), true) == feas.end()) {
          EXPECT_EQ(cls, DecisionTable::kNoClass) << where << " cell " << a << ", " << b;
          continue;
        }
        ASSERT_LT(cls, table.num_classes()) << where << " cell " << a << ", " << b;
        const auto [it, fresh] = class_of_set.emplace(feas, cls);
        EXPECT_EQ(it->second, cls) << where << " cell " << a << ", " << b
                                   << ": equal FEAS sets in different classes";
        if (set_of_class[cls].empty()) set_of_class[cls] = feas;
        EXPECT_EQ(set_of_class[cls], feas) << where << " cell " << a << ", " << b
                                           << ": different FEAS sets in one class";
      }
    }
    EXPECT_EQ(class_of_set.size(), table.num_classes()) << where;

    // Queries: the counts follow QosSpec::satisfied_by, NaN and infinities
    // included, and the class holds exactly the FEAS the scan finds.
    std::vector<double> ss = {kNaN, kInf, -kInf, 0.0, 1e9};
    std::vector<double> fs = {kNaN, kInf, -kInf, 0.0, 2.0};
    for (int q = 0; q < 12; ++q) {
      const std::size_t i = rng.index(n);
      ss.push_back(db.makespans()[i]);
      fs.push_back(db.func_rels()[i]);
      ss.push_back(rng.uniform(40.0, 160.0));
      fs.push_back(rng.uniform(0.88, 1.02));
    }
    for (const double s : ss) {
      EXPECT_EQ(table.makespan_count(s), count_makespans_within(db, s)) << where << " S " << s;
    }
    for (const double f : fs) {
      EXPECT_EQ(table.func_rel_count(f), count_func_rels_within(db, f)) << where << " F " << f;
    }
    for (const double s : ss) {
      for (const double f : fs) {
        const dse::QosSpec spec{s, f};
        const std::vector<bool> feas = feas_of(db, spec);
        const std::uint32_t cls = table.feas_class(spec);
        if (feas == std::vector<bool>(n, false)) {
          EXPECT_EQ(cls, DecisionTable::kNoClass) << where << " S " << s << " F " << f;
        } else {
          ASSERT_LT(cls, table.num_classes()) << where << " S " << s << " F " << f;
          EXPECT_EQ(set_of_class[cls], feas) << where << " S " << s << " F " << f;
        }
      }
    }
    if (HasFailure()) return;
  }
  EXPECT_GE(with_nan, kCases / 5);
}

/// Three points and a cost table the binding tests build policies over.
struct Bound {
  dse::DesignDb db;
  DrcMatrix drc{3, {0, 10, 2, 10, 0, 10, 2, 10, 0}};

  Bound() {
    util::Rng rng(3);
    db = make_db(rng, 3, false);
  }
};

TEST(DecisionTable, PoliciesRejectATableBoundToAnotherDatabase) {
  const Bound x;
  const dse::DesignDb same_points = x.db;  // equal contents, another object
  DecisionTable table(x.db, x.drc, 0.5, 0.0);
  EXPECT_NO_THROW(UraPolicy(x.db, x.drc, 0.5, &table));
  EXPECT_THROW(UraPolicy(same_points, x.drc, 0.5, &table), std::invalid_argument);
  EXPECT_THROW(AuraPolicy(same_points, x.drc, 0.5, AuraPolicy::Params{}, &table),
               std::invalid_argument);
}

TEST(DecisionTable, PoliciesRejectATableBoundToAnotherDrcMatrix) {
  const Bound x;
  const DrcMatrix same_costs = x.drc;
  DecisionTable table(x.db, x.drc, 0.5, 0.0);
  EXPECT_THROW(UraPolicy(x.db, same_costs, 0.5, &table), std::invalid_argument);
  EXPECT_THROW(AuraPolicy(x.db, same_costs, 0.5, AuraPolicy::Params{}, &table),
               std::invalid_argument);
}

TEST(DecisionTable, PoliciesRejectATableBoundToAnotherPrc) {
  const Bound x;
  DecisionTable table(x.db, x.drc, 0.5, 0.0);
  EXPECT_THROW(UraPolicy(x.db, x.drc, 0.25, &table), std::invalid_argument);
  EXPECT_THROW(AuraPolicy(x.db, x.drc, 0.25, AuraPolicy::Params{}, &table),
               std::invalid_argument);
}

TEST(DecisionTable, AuraRejectsATableBoundToAnotherGuard) {
  const Bound x;
  DecisionTable table(x.db, x.drc, 0.5, 1e-3);
  AuraPolicy::Params params;
  EXPECT_THROW(AuraPolicy(x.db, x.drc, 0.5, params, &table), std::invalid_argument);
  params.guard = 1e-3;
  EXPECT_NO_THROW(AuraPolicy(x.db, x.drc, 0.5, params, &table));
  // uRA never looks ahead, so it takes a table at any guard.
  EXPECT_NO_THROW(UraPolicy(x.db, x.drc, 0.5, &table));
}

TEST(DecisionTable, RejectsWhatItCannotIndex) {
  const Bound x;
  EXPECT_THROW(DecisionTable(dse::DesignDb{}, DrcMatrix(0, {}), 0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(DecisionTable(x.db, free_moves(2), 0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(DecisionTable(x.db, x.drc, 1.5, 0.0), std::invalid_argument);
  // Entries are 16-bit: 65,535 points are one too many. Checked before the
  // cost table, which could not be built at that size anyway.
  dse::DesignDb big;
  big.reserve(65535);
  for (std::int32_t i = 0; i < 65535; ++i) {
    dse::DesignPoint p;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = i;
    big.add(std::move(p));
  }
  try {
    DecisionTable table(big, x.drc, 0.5, 0.0);
    ADD_FAILURE() << "a 65,535-point table was built";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("65534"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace clr::rt
