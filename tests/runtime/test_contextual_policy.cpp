#include "runtime/contextual_policy.hpp"

#include <gtest/gtest.h>

namespace clr::rt {
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

DrcMatrix make_drc() {
  return DrcMatrix(3, {0, 10, 2, 10, 0, 10, 2, 10, 0});
}

dse::MetricRanges make_ranges() {
  dse::MetricRanges r;
  r.makespan_min = 80.0;
  r.makespan_max = 120.0;
  r.func_rel_min = 0.92;
  r.func_rel_max = 0.99;
  return r;
}

ContextualAuraPolicy::Params default_params() { return {}; }

TEST(ContextualAura, ContextGridCoversTheBox) {
  const auto db = make_db();
  const auto drc = make_drc();
  ContextualAuraPolicy policy(db, drc, 0.5, make_ranges(), default_params());
  EXPECT_EQ(policy.num_contexts(), 9u);
  // Corners map to distinct buckets.
  const auto loose = policy.context_of(dse::QosSpec{120.0, 0.92});
  const auto tight = policy.context_of(dse::QosSpec{80.0, 0.99});
  EXPECT_NE(loose, tight);
  // Out-of-box specs clamp into the edge buckets.
  EXPECT_EQ(policy.context_of(dse::QosSpec{500.0, 0.0}),
            policy.context_of(dse::QosSpec{120.0, 0.92}));
}

TEST(ContextualAura, RejectsDrcMatrixOfAnotherDatabase) {
  const auto db = make_db();
  const DrcMatrix smaller(2, {0, 1, 1, 0});
  EXPECT_THROW(ContextualAuraPolicy(db, smaller, 0.5, make_ranges(), default_params()),
               std::invalid_argument);
}

TEST(ContextualAura, SingleBucketMatchesPlainAura) {
  const auto db = make_db();
  const auto drc = make_drc();
  ContextualAuraPolicy::Params cp;
  cp.makespan_buckets = 1;
  cp.func_rel_buckets = 1;
  cp.gamma = 0.5;
  cp.alpha = 0.1;
  ContextualAuraPolicy contextual(db, drc, 0.7, make_ranges(), cp);
  AuraPolicy::Params ap;
  ap.gamma = 0.5;
  ap.alpha = 0.1;
  AuraPolicy plain(db, drc, 0.7, ap);

  util::Rng rng(3);
  std::size_t cur_a = 0, cur_b = 0;
  for (int i = 0; i < 200; ++i) {
    dse::QosSpec spec{rng.uniform(80.0, 130.0), rng.uniform(0.90, 0.99)};
    cur_a = contextual.select(cur_a, spec).point;
    cur_b = plain.select(cur_b, spec).point;
    EXPECT_EQ(cur_a, cur_b) << "step " << i;
    if (i % 10 == 9) {
      contextual.end_episode();
      plain.end_episode();
    }
  }
  EXPECT_EQ(contextual.values(0), plain.values());
}

TEST(ContextualAura, LearnsDifferentValuesPerContext) {
  const auto db = make_db();
  const auto drc = make_drc();
  auto params = default_params();
  params.alpha = 0.5;
  // pRC = 0.5 so staying cheaply at a feasible point also earns reward (at
  // pRC = 1 the max-energy point's global reward is exactly 0).
  ContextualAuraPolicy policy(db, drc, 0.5, make_ranges(), params);
  // Loose demands: point 2 (min energy, cheap to reach) is selected -> its
  // value rises in the loose context only.
  const dse::QosSpec loose{120.0, 0.92};
  const dse::QosSpec tight{120.0, 0.99};  // only point 1 feasible
  for (int i = 0; i < 10; ++i) {
    policy.select(0, loose);
    policy.end_episode();
  }
  for (int i = 0; i < 10; ++i) {
    policy.select(1, tight);
    policy.end_episode();
  }
  const auto ctx_loose = policy.context_of(loose);
  const auto ctx_tight = policy.context_of(tight);
  ASSERT_NE(ctx_loose, ctx_tight);
  EXPECT_GT(policy.values(ctx_loose)[2], 0.0);
  EXPECT_DOUBLE_EQ(policy.values(ctx_loose)[1], 0.0);
  EXPECT_GT(policy.values(ctx_tight)[1], 0.0);
  EXPECT_DOUBLE_EQ(policy.values(ctx_tight)[2], 0.0);
}

TEST(ContextualAura, ParameterValidation) {
  const auto db = make_db();
  const auto drc = make_drc();
  auto params = default_params();
  params.makespan_buckets = 0;
  EXPECT_THROW(ContextualAuraPolicy(db, drc, 0.5, make_ranges(), params), std::invalid_argument);
  params = default_params();
  params.gamma = 1.0;
  EXPECT_THROW(ContextualAuraPolicy(db, drc, 0.5, make_ranges(), params), std::invalid_argument);
  params = default_params();
  params.alpha = 0.0;
  EXPECT_THROW(ContextualAuraPolicy(db, drc, 0.5, make_ranges(), params), std::invalid_argument);
}

TEST(ContextualAura, ResetDropsPendingTrajectory) {
  const auto db = make_db();
  const auto drc = make_drc();
  auto params = default_params();
  params.alpha = 1.0;
  ContextualAuraPolicy policy(db, drc, 1.0, make_ranges(), params);
  policy.select(0, dse::QosSpec{120.0, 0.92});
  policy.reset();
  policy.end_episode();
  for (std::size_t c = 0; c < policy.num_contexts(); ++c) {
    for (double v : policy.values(c)) EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(ContextualAura, FrozenLearningKeepsValues) {
  const auto db = make_db();
  const auto drc = make_drc();
  ContextualAuraPolicy policy(db, drc, 1.0, make_ranges(), default_params());
  policy.set_learning(false);
  policy.select(0, dse::QosSpec{120.0, 0.92});
  policy.end_episode();
  for (std::size_t c = 0; c < policy.num_contexts(); ++c) {
    for (double v : policy.values(c)) EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

}  // namespace
}  // namespace clr::rt
