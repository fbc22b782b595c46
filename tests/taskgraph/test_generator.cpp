#include "taskgraph/generator.hpp"

#include <gtest/gtest.h>

namespace clr::tg {
namespace {

/// Property sweep over the application sizes the paper evaluates (10..100)
/// plus edge sizes.
class GeneratorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorSweep, ProducesExactTaskCount) {
  GeneratorParams p;
  p.num_tasks = GetParam();
  util::Rng rng(1000 + GetParam());
  const TaskGraph g = TgffGenerator(p).generate(rng);
  EXPECT_EQ(g.num_tasks(), p.num_tasks);
}

TEST_P(GeneratorSweep, ProducesAcyclicGraph) {
  GeneratorParams p;
  p.num_tasks = GetParam();
  util::Rng rng(2000 + GetParam());
  const TaskGraph g = TgffGenerator(p).generate(rng);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_NO_THROW(g.topological_order());
}

TEST_P(GeneratorSweep, GraphIsConnectedFromSources) {
  GeneratorParams p;
  p.num_tasks = GetParam();
  util::Rng rng(3000 + GetParam());
  const TaskGraph g = TgffGenerator(p).generate(rng);
  // Every non-source task has at least one predecessor; with the growth
  // construction every task is reachable from the root.
  std::size_t with_preds = 0;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!g.predecessors(t).empty()) ++with_preds;
  }
  EXPECT_EQ(with_preds + g.sources().size(), g.num_tasks());
  if (g.num_tasks() > 1) {
    EXPECT_LT(g.sources().size(), g.num_tasks());
  }
}

TEST_P(GeneratorSweep, RespectsOutDegreeCap) {
  GeneratorParams p;
  p.num_tasks = GetParam();
  p.max_out_degree = 3;
  util::Rng rng(4000 + GetParam());
  const TaskGraph g = TgffGenerator(p).generate(rng);
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_LE(g.out_edges(t).size(), p.max_out_degree);
  }
}

TEST_P(GeneratorSweep, EdgeAttributesWithinRanges) {
  GeneratorParams p;
  p.num_tasks = GetParam();
  util::Rng rng(5000 + GetParam());
  const TaskGraph g = TgffGenerator(p).generate(rng);
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.comm_time, p.comm_time_min);
    EXPECT_LE(e.comm_time, p.comm_time_max);
    EXPECT_GE(e.data_bytes, p.data_bytes_min);
    EXPECT_LE(e.data_bytes, p.data_bytes_max);
  }
}

TEST_P(GeneratorSweep, TaskTypesWithinRange) {
  GeneratorParams p;
  p.num_tasks = GetParam();
  p.num_task_types = 6;
  util::Rng rng(6000 + GetParam());
  const TaskGraph g = TgffGenerator(p).generate(rng);
  for (const auto& t : g.tasks()) {
    EXPECT_LT(t.type, p.num_task_types);
    EXPECT_GE(t.criticality, p.criticality_min);
    EXPECT_LE(t.criticality, p.criticality_max);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, GeneratorSweep,
                         ::testing::Values(1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100));

TEST(TgffGenerator, DeterministicPerSeed) {
  GeneratorParams p;
  p.num_tasks = 30;
  util::Rng a(99), b(99);
  const TaskGraph ga = TgffGenerator(p).generate(a);
  const TaskGraph gb = TgffGenerator(p).generate(b);
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  for (EdgeId e = 0; e < ga.num_edges(); ++e) {
    EXPECT_EQ(ga.edge(e).src, gb.edge(e).src);
    EXPECT_EQ(ga.edge(e).dst, gb.edge(e).dst);
    EXPECT_DOUBLE_EQ(ga.edge(e).comm_time, gb.edge(e).comm_time);
  }
}

TEST(TgffGenerator, DifferentSeedsProduceDifferentGraphs) {
  GeneratorParams p;
  p.num_tasks = 30;
  util::Rng a(1), b(2);
  const TaskGraph ga = TgffGenerator(p).generate(a);
  const TaskGraph gb = TgffGenerator(p).generate(b);
  bool differs = ga.num_edges() != gb.num_edges();
  if (!differs) {
    for (EdgeId e = 0; e < ga.num_edges(); ++e) {
      if (ga.edge(e).src != gb.edge(e).src || ga.edge(e).dst != gb.edge(e).dst) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(TgffGenerator, RejectsBadParams) {
  util::Rng rng(1);
  GeneratorParams p;
  p.num_tasks = 0;
  EXPECT_THROW(TgffGenerator(p).generate(rng), std::invalid_argument);
  p.num_tasks = 5;
  p.num_task_types = 0;
  EXPECT_THROW(TgffGenerator(p).generate(rng), std::invalid_argument);
  p.num_task_types = 3;
  p.comm_time_min = 5.0;
  p.comm_time_max = 1.0;
  EXPECT_THROW(TgffGenerator(p).generate(rng), std::invalid_argument);
}

TEST(TgffGenerator, SingleTaskGraph) {
  GeneratorParams p;
  p.num_tasks = 1;
  util::Rng rng(7);
  const TaskGraph g = TgffGenerator(p).generate(rng);
  EXPECT_EQ(g.num_tasks(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
}

}  // namespace
}  // namespace clr::tg
