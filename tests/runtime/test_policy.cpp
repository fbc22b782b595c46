#include "runtime/policy.hpp"

#include <gtest/gtest.h>

namespace clr::rt {
namespace {

/// Hand-crafted database:
///   point 0: S=100, F=0.95, J=50  (fast-ish, cheap reliability, mid energy)
///   point 1: S=120, F=0.99, J=80  (slow, very reliable, expensive)
///   point 2: S= 80, F=0.92, J=30  (fastest, least reliable, cheapest)
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

/// Symmetric cost table: moving between any two distinct points costs 10,
/// except 0 <-> 2 which costs 2 (a cheap pair).
DrcMatrix make_drc() {
  return DrcMatrix(3, {0, 10, 2,
                       10, 0, 10,
                       2, 10, 0});
}

TEST(UraPolicy, RejectsBadArguments) {
  const auto db = make_db();
  const auto drc = make_drc();
  EXPECT_THROW(UraPolicy(db, drc, -0.1), std::invalid_argument);
  EXPECT_THROW(UraPolicy(db, drc, 1.1), std::invalid_argument);
  dse::DesignDb empty;
  DrcMatrix empty_drc(0, {});
  EXPECT_THROW(UraPolicy(empty, empty_drc, 0.5), std::invalid_argument);
}

// A cost table built for another database would be read past its end (or
// answer for the wrong points): every policy refuses it at construction.
TEST(UraPolicy, RejectsDrcMatrixOfAnotherDatabase) {
  const auto db = make_db();
  const DrcMatrix smaller(2, {0, 1, 1, 0});
  EXPECT_THROW(UraPolicy(db, smaller, 0.5), std::invalid_argument);
}

TEST(UraPolicy, FiltersByFeasibility) {
  const auto db = make_db();
  const auto drc = make_drc();
  UraPolicy policy(db, drc, 1.0);
  // Only point 1 satisfies F >= 0.99.
  const auto d = policy.select(0, dse::QosSpec{200.0, 0.99});
  EXPECT_EQ(d.point, 1u);
  EXPECT_FALSE(d.feasible_set_empty);
}

TEST(UraPolicy, PrcOneMaximizesPerformance) {
  const auto db = make_db();
  const auto drc = make_drc();
  UraPolicy policy(db, drc, 1.0);
  // All feasible: picks minimum energy (point 2) regardless of dRC.
  const auto d = policy.select(1, dse::QosSpec{200.0, 0.0});
  EXPECT_EQ(d.point, 2u);
  EXPECT_DOUBLE_EQ(d.drc, 10.0);
}

TEST(UraPolicy, PrcZeroStaysPutWhenCurrentIsFeasible) {
  const auto db = make_db();
  const auto drc = make_drc();
  UraPolicy policy(db, drc, 0.0);
  // Current point 1 feasible: dRC 0 beats every move.
  const auto d = policy.select(1, dse::QosSpec{200.0, 0.0});
  EXPECT_EQ(d.point, 1u);
  EXPECT_DOUBLE_EQ(d.drc, 0.0);
}

TEST(UraPolicy, PrcZeroMovesToCheapestFeasibleOnViolation) {
  const auto db = make_db();
  const auto drc = make_drc();
  UraPolicy policy(db, drc, 0.0);
  // Current = 1, new spec excludes point 1 (S <= 110): feasible = {0, 2};
  // both cost 10 from point 1 — tie broken by best RET then order; with
  // pRC=0 both have equal normalized dRC, argmax keeps the first maximal
  // entry (point 0).
  const auto d = policy.select(1, dse::QosSpec{110.0, 0.0});
  EXPECT_TRUE(d.point == 0 || d.point == 2);
  EXPECT_DOUBLE_EQ(d.drc, 10.0);
}

TEST(UraPolicy, BalancedPrcPrefersCheapGoodEnoughMove) {
  const auto db = make_db();
  const auto drc = make_drc();
  UraPolicy policy(db, drc, 0.5);
  // From point 0 with everything feasible: point 2 has both the best energy
  // AND a cheap transition (cost 2) — clear winner at any pRC > 0.
  const auto d = policy.select(0, dse::QosSpec{200.0, 0.0});
  EXPECT_EQ(d.point, 2u);
  EXPECT_DOUBLE_EQ(d.drc, 2.0);
}

TEST(UraPolicy, EmptyFeasibleSetFallsBackToLeastViolating) {
  const auto db = make_db();
  const auto drc = make_drc();
  UraPolicy policy(db, drc, 0.5);
  const auto d = policy.select(0, dse::QosSpec{10.0, 0.999});
  EXPECT_TRUE(d.feasible_set_empty);
  EXPECT_LT(d.point, 3u);
  EXPECT_DOUBLE_EQ(d.reward, 0.0);  // worst outcome in the [0,1] reward scale
}

TEST(UraPolicy, RewardIsNormalizedCombination) {
  const auto db = make_db();
  const auto drc = make_drc();
  UraPolicy policy(db, drc, 1.0);
  const auto d = policy.select(0, dse::QosSpec{200.0, 0.0});
  // pRC=1: reward = database-global norm(R) of the best performer = 1.
  EXPECT_DOUBLE_EQ(d.reward, 1.0);
}

TEST(AuraPolicy, GammaZeroMatchesUra) {
  const auto db = make_db();
  const auto drc = make_drc();
  AuraPolicy::Params params;
  params.gamma = 0.0;
  for (double p_rc : {0.0, 0.3, 0.7, 1.0}) {
    UraPolicy ura(db, drc, p_rc);
    AuraPolicy aura(db, drc, p_rc, params);
    for (std::size_t current = 0; current < db.size(); ++current) {
      for (const auto& spec : {dse::QosSpec{200.0, 0.0}, dse::QosSpec{110.0, 0.0},
                               dse::QosSpec{200.0, 0.94}}) {
        EXPECT_EQ(ura.select(current, spec).point, aura.select(current, spec).point)
            << "pRC=" << p_rc;
      }
    }
  }
}

TEST(AuraPolicy, ValueLookaheadChangesDecision) {
  const auto db = make_db();
  const auto drc = make_drc();
  AuraPolicy::Params params;
  params.gamma = 0.9;
  params.guard = 10.0;  // wide guard so the lookahead may override freely
  AuraPolicy aura(db, drc, 1.0, params);
  // Bias the values: make point 0 enormously valuable.
  aura.set_values({100.0, 0.0, 0.0});
  const auto d = aura.select(1, dse::QosSpec{200.0, 0.0});
  EXPECT_EQ(d.point, 0u);  // overrides the pure-energy choice (point 2)
}

/// Database for the guard-band boundary: three points whose energies are
/// 100, 1e-11 and 0 — points 1 and 2 differ by 1e-13 in feasible-set
/// normalized immediate RET (pRC = 1), i.e. nearly but NOT exactly tied.
/// All transitions are free so dRC never interferes.
dse::DesignDb make_near_tie_db() {
  dse::DesignDb db;
  auto add = [&](double j, int tag) {
    dse::DesignPoint p;
    p.makespan = 100;
    p.func_rel = 0.95;
    p.energy = j;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = tag;
    db.add(p);
  };
  add(100.0, 0);
  add(1e-11, 1);
  add(0.0, 2);
  return db;
}

TEST(AuraPolicy, GuardZeroMeansExactTiesOnly) {
  // guard = 0 must restrict the value lookahead to *exact* immediate ties.
  // Point 1's immediate RET trails point 2's by ~1e-13; an epsilon guard
  // band would admit it and the huge learned value would flip the decision,
  // making the agent pay a real (if tiny) immediate loss the guard-0
  // contract forbids.
  const auto db = make_near_tie_db();
  DrcMatrix free_moves(3, std::vector<double>(9, 0.0));
  AuraPolicy::Params params;
  params.gamma = 0.5;
  params.guard = 0.0;
  AuraPolicy aura(db, free_moves, /*p_rc=*/1.0, params);
  aura.set_values({0.0, 100.0, 0.0});
  const auto d = aura.select(0, dse::QosSpec{200.0, 0.0});
  EXPECT_EQ(d.point, 2u);  // the best-immediate point, not the valuable one
}

TEST(AuraPolicy, GuardZeroStillArbitratesExactTies) {
  // Two points with identical metrics tie exactly on immediate RET; the
  // lookahead may (and should) break the tie by learned value.
  dse::DesignDb db;
  auto add = [&](double j, int tag) {
    dse::DesignPoint p;
    p.makespan = 100;
    p.func_rel = 0.95;
    p.energy = j;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = tag;
    db.add(p);
  };
  add(30.0, 0);
  add(30.0, 1);
  add(80.0, 2);
  DrcMatrix free_moves(3, std::vector<double>(9, 0.0));
  AuraPolicy::Params params;
  params.gamma = 0.5;
  params.guard = 0.0;
  AuraPolicy aura(db, free_moves, /*p_rc=*/1.0, params);
  aura.set_values({0.0, 50.0, 0.0});
  const auto d = aura.select(2, dse::QosSpec{200.0, 0.0});
  EXPECT_EQ(d.point, 1u);  // tied on RET, higher value wins
}

TEST(AuraPolicy, PositiveGuardAdmitsNearTies) {
  // With a real guard band the near-tied valuable point is fair game.
  const auto db = make_near_tie_db();
  DrcMatrix free_moves(3, std::vector<double>(9, 0.0));
  AuraPolicy::Params params;
  params.gamma = 0.5;
  params.guard = 0.05;
  AuraPolicy aura(db, free_moves, /*p_rc=*/1.0, params);
  aura.set_values({0.0, 100.0, 0.0});
  const auto d = aura.select(0, dse::QosSpec{200.0, 0.0});
  EXPECT_EQ(d.point, 1u);
}

TEST(AuraPolicy, SelectInitialIsNotRecordedIntoEpisode) {
  const auto db = make_db();
  const auto drc = make_drc();
  AuraPolicy::Params params;
  params.alpha = 1.0;
  AuraPolicy aura(db, drc, 1.0, params);
  const auto d = aura.select_initial(0, dse::QosSpec{200.0, 0.0});
  EXPECT_LT(d.point, db.size());
  aura.end_episode();  // nothing recorded -> nothing updated
  for (double v : aura.values()) EXPECT_DOUBLE_EQ(v, 0.0);
  for (std::size_t c : aura.visit_counts()) EXPECT_EQ(c, 0u);
  // The same decision through select() IS recorded.
  aura.select(0, dse::QosSpec{200.0, 0.0});
  aura.end_episode();
  bool any_update = false;
  for (std::size_t c : aura.visit_counts()) any_update |= c > 0;
  EXPECT_TRUE(any_update);
}

TEST(AuraPolicy, EndEpisodeUpdatesValuesWithDiscountedReturns) {
  const auto db = make_db();
  const auto drc = make_drc();
  AuraPolicy::Params params;
  params.gamma = 0.5;
  params.alpha = 1.0;  // full overwrite for hand-checkable math
  AuraPolicy aura(db, drc, 1.0, params);

  // Visit: all feasible, pRC=1 -> always point 2, reward 1 each time.
  aura.select(0, dse::QosSpec{200.0, 0.0});
  aura.select(2, dse::QosSpec{200.0, 0.0});
  aura.end_episode();
  // Returns (backward): G_last = 1; G_first = 1 + 0.5*1 = 1.5.
  // Every-visit with alpha=1 applies last update G=1.5 to state 2? No:
  // backward pass updates state 2 with G=1 first, then state 2 again with
  // G=1.5 (both visits were state 2), leaving V=1.5.
  EXPECT_DOUBLE_EQ(aura.values()[2], 1.5);
  EXPECT_DOUBLE_EQ(aura.values()[0], 0.0);
}

TEST(AuraPolicy, LearningCanBeFrozen) {
  const auto db = make_db();
  const auto drc = make_drc();
  AuraPolicy aura(db, drc, 1.0);
  aura.set_learning(false);
  aura.select(0, dse::QosSpec{200.0, 0.0});
  aura.end_episode();
  for (double v : aura.values()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(AuraPolicy, ResetClearsEpisodeButKeepsValues) {
  const auto db = make_db();
  const auto drc = make_drc();
  AuraPolicy::Params params;
  params.alpha = 1.0;
  AuraPolicy aura(db, drc, 1.0, params);
  aura.set_values({1.0, 2.0, 3.0});
  aura.select(0, dse::QosSpec{200.0, 0.0});
  aura.reset();        // drops the pending trajectory
  aura.end_episode();  // nothing to apply
  EXPECT_EQ(aura.values(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(AuraPolicy, ParameterValidation) {
  const auto db = make_db();
  const auto drc = make_drc();
  AuraPolicy::Params params;
  params.gamma = 1.0;
  EXPECT_THROW(AuraPolicy(db, drc, 0.5, params), std::invalid_argument);
  params.gamma = 0.5;
  params.alpha = 0.0;
  EXPECT_THROW(AuraPolicy(db, drc, 0.5, params), std::invalid_argument);
}

TEST(AuraPolicy, RejectsDrcMatrixOfAnotherDatabase) {
  const auto db = make_db();
  const DrcMatrix larger(4, std::vector<double>(16, 1.0));
  EXPECT_THROW(AuraPolicy(db, larger, 0.5), std::invalid_argument);
}

TEST(AuraPolicy, SetValuesRejectsWrongSize) {
  const auto db = make_db();
  const auto drc = make_drc();
  AuraPolicy aura(db, drc, 0.5);
  EXPECT_THROW(aura.set_values({1.0}), std::invalid_argument);
}

TEST(BaselinePolicy, RejectsDrcMatrixOfAnotherDatabase) {
  const auto db = make_db();
  const DrcMatrix smaller(2, {0, 1, 1, 0});
  EXPECT_THROW(BaselinePolicy(db, smaller), std::invalid_argument);
}

TEST(BaselinePolicy, PicksBestHypervolumeEveryEvent) {
  const auto db = make_db();
  const auto drc = make_drc();
  BaselinePolicy policy(db, drc);
  // Loose spec: the point sweeping the most volume toward the corner wins;
  // point 2 dominates on makespan and energy and should win with a loose F.
  const auto d = policy.select(1, dse::QosSpec{200.0, 0.0});
  EXPECT_EQ(d.point, 2u);
  EXPECT_DOUBLE_EQ(d.drc, 10.0);
}

TEST(BaselinePolicy, RespectsFeasibility) {
  const auto db = make_db();
  const auto drc = make_drc();
  BaselinePolicy policy(db, drc);
  const auto d = policy.select(0, dse::QosSpec{200.0, 0.99});
  EXPECT_EQ(d.point, 1u);
}

TEST(BaselinePolicy, FallsBackWhenNothingFeasible) {
  const auto db = make_db();
  const auto drc = make_drc();
  BaselinePolicy policy(db, drc);
  const auto d = policy.select(0, dse::QosSpec{10.0, 0.999});
  EXPECT_TRUE(d.feasible_set_empty);
}

TEST(DrcMatrix, ExplicitTableLookups) {
  const auto drc = make_drc();
  EXPECT_DOUBLE_EQ(drc.drc(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(drc.drc(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(drc.drc(1, 1), 0.0);
  EXPECT_EQ(drc.size(), 3u);
}

TEST(DrcMatrix, RejectsNonSquareTable) {
  EXPECT_THROW(DrcMatrix(2, {1.0, 2.0, 3.0}), std::invalid_argument);
}

}  // namespace
}  // namespace clr::rt
