#pragma once
// JSON (de)serialization of the library's persistent artifacts:
//   - Platform      — the architecture model,
//   - TaskGraph     — the application model,
//   - ClrSpace      — the CLR configuration menu,
//   - DesignDb      — the stored design points (the Fig. 3 database the
//                     design-time stage hands to the run-time manager).
//
// The DesignDb file embeds the CLR space it indexes into, so a loaded
// database is self-describing; the platform/graph are stored separately
// (they are larger and shared across databases).

#include <optional>

#include "dse/design_db.hpp"
#include "io/json.hpp"
#include "platform/platform.hpp"
#include "reliability/clr_config.hpp"
#include "runtime/drc_matrix.hpp"
#include "taskgraph/graph.hpp"

namespace clr::io {

/// Current schema version; bumped on breaking format changes.
inline constexpr int kSchemaVersion = 1;

Json to_json(const plat::Platform& platform);
plat::Platform platform_from_json(const Json& j);

Json to_json(const tg::TaskGraph& graph);
tg::TaskGraph task_graph_from_json(const Json& j);

Json to_json(const rel::ClrSpace& space);
rel::ClrSpace clr_space_from_json(const Json& j);

Json to_json(const sched::Configuration& cfg);
sched::Configuration configuration_from_json(const Json& j);

/// The design-point database, embedding its CLR space.
Json to_json(const dse::DesignDb& db, const rel::ClrSpace& space);

struct LoadedDesignDb {
  dse::DesignDb db;
  rel::ClrSpace space;
  /// The DrcMatrix a `.clrdb` stored, so readers skip the O(n²·tasks)
  /// rebuild; absent for JSON and for snapshots written without one.
  std::optional<rt::DrcMatrix> drc;
};
LoadedDesignDb design_db_from_json(const Json& j);

/// Convenience file round trips (throw std::runtime_error / JsonError).
/// load_design_db reads either format, dispatching on the content (the
/// snapshot magic), not the extension; it is the one read path of clrtool.
void save_design_db(const std::string& path, const dse::DesignDb& db,
                    const rel::ClrSpace& space);
LoadedDesignDb load_design_db(const std::string& path);

}  // namespace clr::io
