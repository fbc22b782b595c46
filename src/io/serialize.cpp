#include "io/serialize.hpp"

#include <fstream>
#include <sstream>

#include "common/table.hpp"
#include "io/snapshot.hpp"

namespace clr::io {

namespace {

void check_version(const Json& j, const char* kind) {
  const Json* v = j.find("version");
  if (v == nullptr) {
    throw JsonError(std::string(kind) + ": missing schema version (this reader supports " +
                        std::to_string(kSchemaVersion) + ")",
                    0);
  }
  if (v->as_int() != kSchemaVersion) {
    throw JsonError(std::string(kind) + ": unsupported schema version " +
                        std::to_string(v->as_int()) + " (this reader supports " +
                        std::to_string(kSchemaVersion) + ")",
                    0);
  }
}

const char* kind_name(plat::PeKind kind) {
  switch (kind) {
    case plat::PeKind::GeneralPurpose: return "general";
    case plat::PeKind::Dsp: return "dsp";
    case plat::PeKind::Accelerator: return "accelerator";
  }
  throw JsonError("unknown PeKind", 0);
}

plat::PeKind kind_from_name(const std::string& name) {
  if (name == "general") return plat::PeKind::GeneralPurpose;
  if (name == "dsp") return plat::PeKind::Dsp;
  if (name == "accelerator") return plat::PeKind::Accelerator;
  throw JsonError("unknown PE kind '" + name + "'", 0);
}

}  // namespace

Json to_json(const plat::Platform& platform) {
  JsonArray types;
  for (const auto& t : platform.pe_types()) {
    types.push_back(Json(JsonObject{{"name", Json(t.name)},
                                    {"kind", Json(kind_name(t.kind))},
                                    {"perf_factor", Json(t.perf_factor)},
                                    {"power_factor", Json(t.power_factor)},
                                    {"avf", Json(t.avf)},
                                    {"beta_aging", Json(t.beta_aging)},
                                    {"static_power", Json(t.static_power)}}));
  }
  JsonArray prrs;
  for (std::size_t i = 0; i < platform.num_prrs(); ++i) {
    prrs.push_back(Json(JsonObject{
        {"bitstream_bytes", Json(static_cast<double>(platform.prr(static_cast<plat::PrrId>(i)).bitstream_bytes))}}));
  }
  JsonArray pes;
  for (const auto& pe : platform.pes()) {
    JsonObject o{{"type", Json(static_cast<double>(pe.type))},
                 {"local_mem_bytes", Json(static_cast<double>(pe.local_mem_bytes))}};
    if (pe.prr != plat::Pe::kNoPrr) o.emplace_back("prr", Json(static_cast<double>(pe.prr)));
    pes.push_back(Json(std::move(o)));
  }
  const auto& ic = platform.interconnect();
  return Json(JsonObject{
      {"version", Json(kSchemaVersion)},
      {"pe_types", Json(std::move(types))},
      {"prrs", Json(std::move(prrs))},
      {"pes", Json(std::move(pes))},
      {"interconnect",
       Json(JsonObject{{"binary_bandwidth", Json(ic.binary_bandwidth)},
                       {"icap_bandwidth", Json(ic.icap_bandwidth)},
                       {"per_migration_overhead", Json(ic.per_migration_overhead)},
                       {"topology", Json(ic.topology == plat::Topology::Bus ? "bus" : "mesh2d")},
                       {"mesh_columns", Json(static_cast<double>(ic.mesh_columns))}})}});
}

plat::Platform platform_from_json(const Json& j) {
  check_version(j, "platform");
  plat::Platform hw;
  for (const auto& t : j.at("pe_types").as_array()) {
    plat::PeType type;
    type.name = t.at("name").as_string();
    type.kind = kind_from_name(t.at("kind").as_string());
    type.perf_factor = t.at("perf_factor").as_number();
    type.power_factor = t.at("power_factor").as_number();
    type.avf = t.at("avf").as_number();
    type.beta_aging = t.at("beta_aging").as_number();
    type.static_power = t.at("static_power").as_number();
    hw.add_pe_type(type);
  }
  for (const auto& p : j.at("prrs").as_array()) {
    hw.add_prr(static_cast<std::uint32_t>(p.at("bitstream_bytes").as_int()));
  }
  for (const auto& p : j.at("pes").as_array()) {
    const auto type = static_cast<plat::PeTypeId>(p.at("type").as_int());
    const auto mem = static_cast<std::uint32_t>(p.at("local_mem_bytes").as_int());
    const Json* prr = p.find("prr");
    hw.add_pe(type, mem,
              prr != nullptr ? static_cast<std::uint32_t>(prr->as_int()) : plat::Pe::kNoPrr);
  }
  const Json& ic = j.at("interconnect");
  plat::Interconnect interconnect;
  interconnect.binary_bandwidth = ic.at("binary_bandwidth").as_number();
  interconnect.icap_bandwidth = ic.at("icap_bandwidth").as_number();
  interconnect.per_migration_overhead = ic.at("per_migration_overhead").as_number();
  if (const Json* topo = ic.find("topology"); topo != nullptr) {
    const std::string& name = topo->as_string();
    if (name == "bus") interconnect.topology = plat::Topology::Bus;
    else if (name == "mesh2d") interconnect.topology = plat::Topology::Mesh2D;
    else throw JsonError("unknown topology '" + name + "'", 0);
    interconnect.mesh_columns = static_cast<std::size_t>(ic.at("mesh_columns").as_int());
  }
  hw.set_interconnect(interconnect);
  return hw;
}

Json to_json(const tg::TaskGraph& graph) {
  JsonArray tasks;
  for (const auto& t : graph.tasks()) {
    tasks.push_back(Json(JsonObject{{"type", Json(static_cast<double>(t.type))},
                                    {"criticality", Json(t.criticality)},
                                    {"name", Json(t.name)}}));
  }
  JsonArray edges;
  for (const auto& e : graph.edges()) {
    edges.push_back(Json(JsonObject{{"src", Json(static_cast<double>(e.src))},
                                    {"dst", Json(static_cast<double>(e.dst))},
                                    {"comm_time", Json(e.comm_time)},
                                    {"data_bytes", Json(static_cast<double>(e.data_bytes))}}));
  }
  return Json(JsonObject{{"version", Json(kSchemaVersion)},
                         {"period", Json(graph.period())},
                         {"tasks", Json(std::move(tasks))},
                         {"edges", Json(std::move(edges))}});
}

tg::TaskGraph task_graph_from_json(const Json& j) {
  check_version(j, "task graph");
  tg::TaskGraph g;
  g.set_period(j.at("period").as_number());
  for (const auto& t : j.at("tasks").as_array()) {
    g.add_task(static_cast<tg::TaskType>(t.at("type").as_int()), t.at("criticality").as_number(),
               t.at("name").as_string());
  }
  for (const auto& e : j.at("edges").as_array()) {
    g.add_edge(static_cast<tg::TaskId>(e.at("src").as_int()),
               static_cast<tg::TaskId>(e.at("dst").as_int()), e.at("comm_time").as_number(),
               static_cast<std::uint32_t>(e.at("data_bytes").as_int()));
  }
  return g;
}

Json to_json(const rel::ClrSpace& space) {
  JsonArray configs;
  for (const auto& c : space.configs()) {
    configs.push_back(Json(JsonObject{{"hw", Json(static_cast<double>(static_cast<int>(c.hw)))},
                                      {"ssw", Json(static_cast<double>(static_cast<int>(c.ssw)))},
                                      {"asw", Json(static_cast<double>(static_cast<int>(c.asw)))},
                                      {"ssw_param", Json(static_cast<double>(c.ssw_param))}}));
  }
  return Json(JsonObject{{"version", Json(kSchemaVersion)}, {"configs", Json(std::move(configs))}});
}

rel::ClrSpace clr_space_from_json(const Json& j) {
  check_version(j, "CLR space");
  std::vector<rel::ClrConfig> configs;
  for (const auto& c : j.at("configs").as_array()) {
    rel::ClrConfig config;
    config.hw = static_cast<rel::HwTechnique>(c.at("hw").as_int());
    config.ssw = static_cast<rel::SswTechnique>(c.at("ssw").as_int());
    config.asw = static_cast<rel::AswTechnique>(c.at("asw").as_int());
    config.ssw_param = static_cast<std::uint8_t>(c.at("ssw_param").as_int());
    configs.push_back(config);
  }
  return rel::ClrSpace(std::move(configs));
}

Json to_json(const sched::Configuration& cfg) {
  // Compact columnar encoding: four parallel arrays.
  JsonArray pe, impl, clr, prio;
  for (const auto& a : cfg.tasks) {
    pe.push_back(Json(static_cast<double>(a.pe)));
    impl.push_back(Json(static_cast<double>(a.impl_index)));
    clr.push_back(Json(static_cast<double>(a.clr_index)));
    prio.push_back(Json(static_cast<double>(a.priority)));
  }
  return Json(JsonObject{{"pe", Json(std::move(pe))},
                         {"impl", Json(std::move(impl))},
                         {"clr", Json(std::move(clr))},
                         {"priority", Json(std::move(prio))}});
}

sched::Configuration configuration_from_json(const Json& j) {
  const auto& pe = j.at("pe").as_array();
  const auto& impl = j.at("impl").as_array();
  const auto& clr = j.at("clr").as_array();
  const auto& prio = j.at("priority").as_array();
  if (pe.size() != impl.size() || pe.size() != clr.size() || pe.size() != prio.size()) {
    throw JsonError("configuration: column length mismatch", 0);
  }
  sched::Configuration cfg;
  cfg.tasks.resize(pe.size());
  for (std::size_t t = 0; t < pe.size(); ++t) {
    cfg.tasks[t].pe = static_cast<plat::PeId>(pe[t].as_int());
    cfg.tasks[t].impl_index = static_cast<std::uint32_t>(impl[t].as_int());
    cfg.tasks[t].clr_index = static_cast<std::uint32_t>(clr[t].as_int());
    cfg.tasks[t].priority = static_cast<std::int32_t>(prio[t].as_int());
  }
  return cfg;
}

Json to_json(const dse::DesignDb& db, const rel::ClrSpace& space) {
  JsonArray points;
  for (const auto& p : db.points()) {
    points.push_back(Json(JsonObject{{"config", to_json(p.config)},
                                     {"energy", Json(p.energy)},
                                     {"makespan", Json(p.makespan)},
                                     {"func_rel", Json(p.func_rel)},
                                     {"extra", Json(p.extra)}}));
  }
  return Json(JsonObject{{"version", Json(kSchemaVersion)},
                         {"clr_space", to_json(space)},
                         {"points", Json(std::move(points))}});
}

LoadedDesignDb design_db_from_json(const Json& j) {
  check_version(j, "design database");
  LoadedDesignDb loaded{dse::DesignDb{}, clr_space_from_json(j.at("clr_space")), std::nullopt};
  for (const auto& p : j.at("points").as_array()) {
    dse::DesignPoint point;
    point.config = configuration_from_json(p.at("config"));
    point.energy = p.at("energy").as_number();
    point.makespan = p.at("makespan").as_number();
    point.func_rel = p.at("func_rel").as_number();
    point.extra = p.at("extra").as_bool();
    loaded.db.add(std::move(point));
  }
  return loaded;
}

void save_design_db(const std::string& path, const dse::DesignDb& db,
                    const rel::ClrSpace& space) {
  util::write_file(path, to_json(db, space).dump(2) + "\n");
}

LoadedDesignDb load_design_db(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_design_db: cannot open " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  std::string bytes = std::move(buffer).str();
  // Dispatch on content, not extension: a .clrdb snapshot loads through the
  // binary path, keeping its DrcMatrix section (its MDP table is dropped).
  if (has_snapshot_magic(bytes)) {
    LoadedSnapshot snap = materialize(Snapshot::from_bytes(std::move(bytes)).view());
    return LoadedDesignDb{std::move(snap.db), std::move(snap.space), std::move(snap.drc)};
  }
  return design_db_from_json(Json::parse(bytes));
}

}  // namespace clr::io
