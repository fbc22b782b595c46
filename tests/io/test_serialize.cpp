#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>

#include "experiments/app.hpp"
#include "experiments/flow.hpp"
#include "taskgraph/generator.hpp"

namespace clr::io {
namespace {

TEST(SerializePlatform, RoundTripsDefaultHmpsoc) {
  const auto hw = plat::make_default_hmpsoc();
  const auto restored = platform_from_json(Json::parse(to_json(hw).dump()));
  ASSERT_EQ(restored.num_pes(), hw.num_pes());
  ASSERT_EQ(restored.num_pe_types(), hw.num_pe_types());
  ASSERT_EQ(restored.num_prrs(), hw.num_prrs());
  for (std::size_t i = 0; i < hw.num_pe_types(); ++i) {
    const auto& a = hw.pe_type(static_cast<plat::PeTypeId>(i));
    const auto& b = restored.pe_type(static_cast<plat::PeTypeId>(i));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_DOUBLE_EQ(a.perf_factor, b.perf_factor);
    EXPECT_DOUBLE_EQ(a.avf, b.avf);
    EXPECT_DOUBLE_EQ(a.beta_aging, b.beta_aging);
  }
  for (std::size_t i = 0; i < hw.num_pes(); ++i) {
    const auto id = static_cast<plat::PeId>(i);
    EXPECT_EQ(hw.pe(id).type, restored.pe(id).type);
    EXPECT_EQ(hw.pe(id).prr, restored.pe(id).prr);
  }
  EXPECT_DOUBLE_EQ(hw.interconnect().binary_bandwidth,
                   restored.interconnect().binary_bandwidth);
}

TEST(SerializePlatform, RoundTripsMeshTopology) {
  auto hw = plat::make_default_hmpsoc();
  auto ic = hw.interconnect();
  ic.topology = plat::Topology::Mesh2D;
  ic.mesh_columns = 3;
  hw.set_interconnect(ic);
  const auto restored = platform_from_json(Json::parse(to_json(hw).dump()));
  EXPECT_EQ(restored.interconnect().topology, plat::Topology::Mesh2D);
  EXPECT_EQ(restored.interconnect().mesh_columns, 3u);
  EXPECT_EQ(restored.hop_count(0, 5), hw.hop_count(0, 5));
}

TEST(SerializeTaskGraph, RoundTripsGeneratedGraph) {
  tg::GeneratorParams p;
  p.num_tasks = 23;
  util::Rng rng(5);
  const auto g = tg::TgffGenerator(p).generate(rng);
  const auto restored = task_graph_from_json(Json::parse(to_json(g).dump()));
  ASSERT_EQ(restored.num_tasks(), g.num_tasks());
  ASSERT_EQ(restored.num_edges(), g.num_edges());
  EXPECT_DOUBLE_EQ(restored.period(), g.period());
  for (tg::TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(restored.task(t).type, g.task(t).type);
    EXPECT_DOUBLE_EQ(restored.task(t).criticality, g.task(t).criticality);
  }
  for (tg::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(restored.edge(e).src, g.edge(e).src);
    EXPECT_EQ(restored.edge(e).dst, g.edge(e).dst);
    EXPECT_DOUBLE_EQ(restored.edge(e).comm_time, g.edge(e).comm_time);
    EXPECT_EQ(restored.edge(e).data_bytes, g.edge(e).data_bytes);
  }
}

TEST(SerializeClrSpace, RoundTripsFullSpace) {
  const rel::ClrSpace space(rel::ClrGranularity::Full);
  const auto restored = clr_space_from_json(Json::parse(to_json(space).dump()));
  ASSERT_EQ(restored.size(), space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(restored.config(i), space.config(i)) << "config " << i;
  }
}

TEST(SerializeConfiguration, RoundTrips) {
  sched::Configuration cfg;
  cfg.tasks = {{3, 1, 7, -2}, {0, 0, 0, 5}};
  const auto restored = configuration_from_json(Json::parse(to_json(cfg).dump()));
  EXPECT_EQ(restored, cfg);
}

TEST(SerializeConfiguration, RejectsRaggedColumns) {
  const auto j = Json::parse(R"({"pe":[1],"impl":[1,2],"clr":[0],"priority":[0]})");
  EXPECT_THROW(configuration_from_json(j), JsonError);
}

TEST(SerializeDesignDb, RoundTripsAFlowResult) {
  const auto app = exp::make_synthetic_app(10, 0x10ad);
  exp::FlowParams params;
  params.dse.base_ga.population = 32;
  params.dse.base_ga.generations = 20;
  params.dse.red_ga.population = 16;
  params.dse.red_ga.generations = 8;
  params.dse.max_red_seeds = 4;
  util::Rng rng(1);
  const auto flow = exp::run_design_flow(*app, params, rng);

  const auto json = to_json(flow.red, app->clr_space());
  const auto loaded = design_db_from_json(Json::parse(json.dump(2)));
  ASSERT_EQ(loaded.db.size(), flow.red.size());
  EXPECT_EQ(loaded.space.size(), app->clr_space().size());
  for (std::size_t i = 0; i < flow.red.size(); ++i) {
    EXPECT_EQ(loaded.db.point(i).config, flow.red.point(i).config);
    EXPECT_DOUBLE_EQ(loaded.db.point(i).energy, flow.red.point(i).energy);
    EXPECT_DOUBLE_EQ(loaded.db.point(i).makespan, flow.red.point(i).makespan);
    EXPECT_DOUBLE_EQ(loaded.db.point(i).func_rel, flow.red.point(i).func_rel);
    EXPECT_EQ(loaded.db.point(i).extra, flow.red.point(i).extra);
  }
}

TEST(SerializeDesignDb, FileRoundTrip) {
  const auto app = exp::make_synthetic_app(8, 0x10ae);
  dse::DesignDb db;
  dse::DesignPoint p;
  p.config.tasks.resize(8);
  p.energy = 12.5;
  p.makespan = 99.0;
  p.func_rel = 0.987;
  db.add(p);
  const auto path = (std::filesystem::temp_directory_path() / "clr_db_test.json").string();
  save_design_db(path, db, app->clr_space());
  const auto loaded = load_design_db(path);
  EXPECT_EQ(loaded.db.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.db.point(0).energy, 12.5);
  std::filesystem::remove(path);
}

TEST(SerializeDesignDb, LoadedDbIsUsableByTheRuntime) {
  const auto app = exp::make_synthetic_app(8, 0x10af);
  exp::FlowParams params;
  params.dse.base_ga.population = 24;
  params.dse.base_ga.generations = 12;
  params.dse.red_ga.population = 12;
  params.dse.red_ga.generations = 6;
  params.dse.max_red_seeds = 2;
  util::Rng rng(2);
  const auto flow = exp::run_design_flow(*app, params, rng);
  const auto loaded = design_db_from_json(Json::parse(to_json(flow.red, app->clr_space()).dump()));

  exp::RuntimeEvalParams rt_params;
  rt_params.sim.total_cycles = 1e4;
  const auto stats = exp::evaluate_policy(*app, loaded.db, exp::qos_ranges(flow), rt_params, 3);
  EXPECT_GT(stats.num_events, 0u);
}

TEST(SerializeErrors, VersionIsChecked) {
  EXPECT_THROW(platform_from_json(Json::parse(R"({"pe_types":[]})")), JsonError);
  EXPECT_THROW(task_graph_from_json(Json::parse(R"({"version": 999})")), JsonError);
  EXPECT_THROW(design_db_from_json(Json::parse(R"({"version": 0})")), JsonError);
}

TEST(SerializeErrors, OutOfMenuTechniqueNamesConfigAndCode) {
  const std::pair<std::string, std::string> cases[] = {
      {R"("hw":9,"ssw":0,"asw":0)", "CLR space config 1: hw technique 9 (want 0..2)"},
      {R"("hw":0,"ssw":-1,"asw":1)", "CLR space config 1: ssw technique -1 (want 0..2)"},
      {R"("hw":2,"ssw":1,"asw":4)", "CLR space config 1: asw technique 4 (want 0..3)"},
  };
  for (const auto& [codes, error] : cases) {
    std::string db = R"({"version":1,"points":[],"clr_space":{"version":1,"configs":[)"
                     R"({"hw":0,"ssw":0,"asw":0,"ssw_param":0},{)";
    db += codes;
    db += R"(,"ssw_param":1}]}})";
    try {
      (void)design_db_from_json(Json::parse(db));
      ADD_FAILURE() << error << " accepted";
    } catch (const JsonError& e) {
      EXPECT_EQ(std::string(e.what()), error + " (at offset 0)");
    }
  }
}

TEST(SerializeErrors, OutOfRangeSswParamNamesConfigAndValue) {
  // 258 used to load as 2, 300 as 44 and -1 as 255.
  for (const char* value : {"258", "300", "-1"}) {
    std::string db = R"({"version":1,"points":[],"clr_space":{"version":1,"configs":[)"
                     R"({"hw":0,"ssw":0,"asw":0,"ssw_param":0},{"hw":0,"ssw":1,"asw":0,)"
                     R"("ssw_param":)";
    db += value;
    db += "}]}}";
    try {
      (void)design_db_from_json(Json::parse(db));
      ADD_FAILURE() << value << " accepted";
    } catch (const JsonError& e) {
      EXPECT_EQ(std::string(e.what()), std::string("CLR space config 1: ssw_param ") + value +
                                           " (want 0..255) (at offset 0)");
    }
  }
  const auto space = clr_space_from_json(Json::parse(
      R"({"version":1,"configs":[{"hw":0,"ssw":1,"asw":0,"ssw_param":255}]})"));
  EXPECT_EQ(space.config(space.size() - 1).ssw_param, 255);
}

TEST(SerializeErrors, OutOfRangeConfigurationFieldNamesTaskFieldAndValue) {
  struct Case {
    const char* field;
    const char* value;
    const char* want;
  };
  const Case cases[] = {
      {"pe", "-1", "0..4294967295"},          {"pe", "4294967296", "0..4294967295"},
      {"impl", "-1", "0..4294967295"},        {"impl", "4294967296", "0..4294967295"},
      {"clr", "-1", "0..4294967295"},         {"clr", "4294967296", "0..4294967295"},
      {"priority", "2147483648", "-2147483648..2147483647"},
      {"priority", "-2147483649", "-2147483648..2147483647"},
  };
  for (const Case& c : cases) {
    std::string cfg = "{";
    for (const std::string field : {"pe", "impl", "clr", "priority"}) {
      if (cfg.size() > 1) cfg += ',';
      cfg += "\"" + field + "\":[0," + (field == c.field ? c.value : "1") + "]";
    }
    cfg += '}';
    const std::string tail = std::string(": ") + c.field + " " + c.value + " (want " + c.want +
                             ") (at offset 0)";
    try {
      (void)configuration_from_json(Json::parse(cfg));
      ADD_FAILURE() << cfg << " accepted";
    } catch (const JsonError& e) {
      EXPECT_EQ(std::string(e.what()), "configuration task 1" + tail);
    }
    const std::string db = R"({"version":1,"clr_space":{"version":1,"configs":[]},"points":[)"
                           R"({"config":{"pe":[0],"impl":[0],"clr":[0],"priority":[0]},)"
                           R"("energy":1,"makespan":1,"func_rel":0.9,"extra":false},)"
                           R"({"config":)" +
                           cfg + R"(,"energy":1,"makespan":1,"func_rel":0.9,"extra":false}]})";
    try {
      (void)design_db_from_json(Json::parse(db));
      ADD_FAILURE() << db << " accepted";
    } catch (const JsonError& e) {
      EXPECT_EQ(std::string(e.what()), "design point 1 task 1" + tail);
    }
  }
}

}  // namespace
}  // namespace clr::io
