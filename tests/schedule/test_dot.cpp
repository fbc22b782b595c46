#include "schedule/dot.hpp"

#include <gtest/gtest.h>

#include "taskgraph/generator.hpp"

namespace clr::sched {
namespace {

TEST(Dot, PlainGraphContainsAllNodesAndEdges) {
  const auto g = tg::make_jpeg_encoder_graph();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (const auto& t : g.tasks()) {
    std::string node = "n";
    node += std::to_string(t.id);
    node += " [";
    EXPECT_NE(dot.find(node), std::string::npos);
    if (!t.name.empty()) {
      EXPECT_NE(dot.find(t.name), std::string::npos);
    }
  }
  std::size_t arrow_count = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos; pos = dot.find("->", pos + 2)) {
    ++arrow_count;
  }
  EXPECT_EQ(arrow_count, g.num_edges());
}

TEST(Dot, MappedGraphColorsByPe) {
  const auto g = tg::make_jpeg_encoder_graph();
  Configuration cfg;
  cfg.tasks.assign(g.num_tasks(), TaskAssignment{0, 0, 0, 0});
  cfg.tasks[1].pe = 1;
  const std::string dot = to_dot(g, cfg);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
  EXPECT_NE(dot.find("PE0"), std::string::npos);
  EXPECT_NE(dot.find("PE1"), std::string::npos);
}

TEST(Dot, MappedGraphRejectsSizeMismatch) {
  const auto g = tg::make_jpeg_encoder_graph();
  Configuration cfg;
  EXPECT_THROW(to_dot(g, cfg), std::invalid_argument);
}

TEST(Dot, UnnamedTasksGetGeneratedLabels) {
  tg::GeneratorParams p;
  p.num_tasks = 5;
  util::Rng rng(1);
  const auto g = tg::TgffGenerator(p).generate(rng);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("t0"), std::string::npos);
}

}  // namespace
}  // namespace clr::sched
