#pragma once
// Versioned, zero-copy `.clrdb` design-database snapshots (DESIGN.md §5.11).
//
// The JSON artifact of io/serialize.hpp is the human-readable interchange
// format; this is the *service* format: a little-endian flat binary holding
// the DesignDb, its ClrSpace and (optionally) the precomputed DrcMatrix in
// relocatable, offset-addressed tables. One read (or one read-only mmap)
// makes every table usable in place — no parse, no per-process DrcMatrix
// rebuild, and one physical copy shared by any number of processes mapping
// the same file.
//
// File layout (all integers little-endian, all sections 8-byte aligned):
//
//   [0..8)   magic        89 'C' 'L' 'R' 'D' 'B' 0D 0A   (PNG-style: catches
//                         text-mode mangling and truncated/foreign files)
//   [8..12)  u32 version  format version; readers accept kSnapshotVersion only
//   [12..16) u32 flags    must be 0 (reserved)
//   [16..24) u64 file_size  total byte size; must equal the actual size
//   [24..32) u64 checksum   FNV-1a64 over [payload_start, file_size)
//   [32..36) u32 section_count
//   [36..40) u32 reserved    must be 0
//   [40.. )  section table: section_count × { u32 kind; u32 reserved;
//                                             u64 offset; u64 size }
//   payload sections follow (payload_start = 40 + 24·section_count).
//
// The header and section table are validated structurally (every byte is
// either checked against an expected value or bounds-checked before use);
// the payload is covered by the checksum. Deserialization is hostile-input
// safe: any truncation, bad magic, unknown version/flag/section, checksum
// mismatch, out-of-bounds offset or inconsistent count throws SnapshotError
// — never reads past the buffer (fuzzed by tests/io/test_snapshot.cpp under
// ASan). Versioning follows the RethinkDB serialize_for_version idiom with a
// range of one: every writer emits kSnapshotVersion, and attach() is the one
// place that reads the header version, refusing any other with a
// found-vs-supported message.

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dse/design_db.hpp"
#include "reliability/clr_config.hpp"
#include "runtime/drc_matrix.hpp"
#include "runtime/mdp_policy.hpp"

namespace clr::io {

/// The one snapshot format version this build reads and writes. Bump it on
/// any layout change; files of every other version are refused (BadVersion).
///
/// Version history (only version 4 is readable):
///   1 — design-database container: ClrSpace + DesignPoints [+ DrcMatrix].
///   2 — adds the ExploreState and RunnerState checkpoint kinds: a file holds
///       EITHER a design database OR exactly one checkpoint section.
///   3 — adds the FleetState checkpoint kind.
///   4 — adds the MdpPolicy companion section (kind 8, the solved
///       rt::MdpTable) and the reconfiguration-port stats in the RunnerState
///       and FleetState payloads.
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// Section kinds. Values are part of the format; never reuse.
enum class SnapshotSection : std::uint32_t {
  ClrSpace = 1,      ///< the CLR configuration menu the points index into
  DesignPoints = 2,  ///< columnar DesignDb tables (CSR task assignments)
  DrcMatrix = 3,     ///< optional n×n pairwise reconfiguration costs
  // 4 is reserved for the sched::CompiledGraph tables (future version).
  ExploreState = 5,  ///< design-flow checkpoint (GA state + stage progress)
  RunnerState = 6,   ///< exp::Runner checkpoint (completed replication jobs)
  FleetState = 7,    ///< fleet::run_fleet checkpoint (completed block sums)
  MdpPolicy = 8,     ///< solved rt::MdpTable riding with its design database
};

/// Typed deserialization failure. Every constructor-path error names what it
/// found and what it expected (same message discipline as the JSON schema
/// check in io/serialize.cpp).
class SnapshotError : public std::runtime_error {
 public:
  enum class Kind {
    Io,          ///< cannot open/read/map the file
    Truncated,   ///< buffer shorter than the structures it declares
    BadMagic,    ///< not a .clrdb file
    BadVersion,  ///< any format version but kSnapshotVersion
    Checksum,    ///< payload bytes do not match the stored checksum
    Bounds,      ///< a section offset/size/count escapes the buffer
    BadValue,    ///< a stored value is structurally invalid (flags, indices)
  };

  SnapshotError(Kind kind, const std::string& message)
      : std::runtime_error("snapshot: " + message), kind_(kind) {}

  Kind kind() const { return kind_; }

  /// The same error, its message naming the file it came from
  /// ("snapshot: PATH: ...").
  SnapshotError in_file(const std::string& path) const {
    return SnapshotError(kind_, path + ": " + (what() + std::string_view("snapshot: ").size()));
  }

 private:
  Kind kind_;
};

/// Zero-copy, read-only view over a validated snapshot buffer. attach()
/// performs the full structural + checksum validation once; every accessor
/// afterwards is a bounds-free span into the caller's buffer (the buffer
/// must outlive the view). All spans alias the file bytes directly — this is
/// the share-one-mapping-across-processes path.
class SnapshotView {
 public:
  /// Validate `data[0, size)` as a .clrdb snapshot. Throws SnapshotError on
  /// any structural or checksum defect. `data` must be 8-byte aligned (mmap
  /// and the Snapshot arena both guarantee this).
  static SnapshotView attach(const void* data, std::size_t size);

  // --- CLR space ---
  std::size_t clr_space_size() const { return clr_count_; }
  /// Decoded configuration `i` (encoded as 4 technique bytes in the file;
  /// attach() checks each technique against its menu).
  rel::ClrConfig clr_config(std::size_t i) const;

  // --- Design points (columnar) ---
  std::size_t num_points() const { return num_points_; }
  std::size_t num_assignments() const { return num_assignments_; }
  /// CSR offsets into the assignment columns: point i owns rows
  /// [point_offsets()[i], point_offsets()[i+1]).
  std::span<const std::uint64_t> point_offsets() const { return point_off_; }
  std::span<const double> energy() const { return energy_; }
  std::span<const double> makespan() const { return makespan_; }
  std::span<const double> func_rel() const { return func_rel_; }
  /// 0/1 per point (ReD extra flag).
  std::span<const std::uint8_t> extra() const { return extra_; }
  std::span<const std::uint32_t> assignment_pe() const { return pe_; }
  std::span<const std::uint32_t> assignment_impl() const { return impl_; }
  std::span<const std::uint32_t> assignment_clr() const { return clr_index_; }
  std::span<const std::int32_t> assignment_priority() const { return priority_; }

  // --- Optional DrcMatrix ---
  bool has_drc() const { return drc_present_; }
  /// Row-major num_points()² cost table (empty when the section is absent).
  std::span<const double> drc_costs() const { return drc_costs_; }

  // --- Optional MdpPolicy companion section (DESIGN.md §5.14) ---
  bool has_mdp() const { return mdp_present_; }
  std::uint32_t mdp_makespan_bins() const { return mdp_makespan_bins_; }
  std::uint32_t mdp_func_rel_bins() const { return mdp_func_rel_bins_; }
  std::uint64_t mdp_num_points() const { return mdp_num_points_; }
  double mdp_gamma() const { return mdp_gamma_; }
  double mdp_p_rc() const { return mdp_p_rc_; }
  /// The QoS box the bins partition, as 6 doubles: energy min/max, makespan
  /// min/max, func_rel min/max (empty when the section is absent).
  std::span<const double> mdp_ranges() const { return mdp_ranges_; }
  /// Greedy action per state, state = bin·num_points + current point.
  std::span<const std::uint32_t> mdp_policy() const { return mdp_policy_; }
  /// Value function per state (same indexing).
  std::span<const double> mdp_values() const { return mdp_values_; }

  // --- Checkpoint sections (DESIGN.md §5.12-5.13) ---
  /// True when the file holds a checkpoint instead of a design database.
  bool has_checkpoint() const { return checkpoint_kind_ != 0; }
  /// The checkpoint's section kind (ExploreState, RunnerState or
  /// FleetState); 0 when has_checkpoint() is false.
  std::uint32_t checkpoint_section_kind() const { return checkpoint_kind_; }
  /// The raw checkpoint payload bytes; io/checkpoint.hpp owns the decoding
  /// (attach() only validates the span bounds and a minimum size).
  std::span<const std::uint8_t> checkpoint_payload() const { return checkpoint_payload_; }

 private:
  friend class Snapshot;
  SnapshotView() = default;

  std::size_t clr_count_ = 0;
  std::span<const std::uint8_t> clr_configs_;  ///< 4 bytes per config
  std::size_t num_points_ = 0;
  std::size_t num_assignments_ = 0;
  std::span<const std::uint64_t> point_off_;
  std::span<const double> energy_, makespan_, func_rel_;
  std::span<const std::uint8_t> extra_;
  std::span<const std::uint32_t> pe_, impl_, clr_index_;
  std::span<const std::int32_t> priority_;
  std::span<const double> drc_costs_;
  bool drc_present_ = false;
  bool mdp_present_ = false;
  std::uint32_t mdp_makespan_bins_ = 0;
  std::uint32_t mdp_func_rel_bins_ = 0;
  std::uint64_t mdp_num_points_ = 0;
  double mdp_gamma_ = 0.0;
  double mdp_p_rc_ = 0.0;
  std::span<const double> mdp_ranges_;
  std::span<const std::uint32_t> mdp_policy_;
  std::span<const double> mdp_values_;
  std::uint32_t checkpoint_kind_ = 0;
  std::span<const std::uint8_t> checkpoint_payload_;
};

/// Owning snapshot: a read-only mmap of the file when the platform supports
/// it (instant, demand-paged, physically shared across processes), else one
/// aligned heap arena filled by a single read. Movable, not copyable.
class Snapshot {
 public:
  /// Open + validate. Throws SnapshotError (Kind::Io on filesystem errors),
  /// its message naming `path`.
  static Snapshot open(const std::string& path);

  /// Validate an in-memory image (takes ownership; used by tests/fuzzing).
  static Snapshot from_bytes(std::string bytes);

  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot();

  const SnapshotView& view() const { return view_; }
  std::size_t size_bytes() const { return size_; }
  /// True when the bytes are a shared read-only file mapping (zero-copy).
  bool is_mapped() const { return mapped_; }

 private:
  Snapshot() = default;
  void reset() noexcept;
  static Snapshot open_unnamed(const std::string& path);

  SnapshotView view_;
  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::string arena_;  ///< backing store for the non-mmap / from_bytes path
};

/// A snapshot materialized into the library's owning runtime types.
struct LoadedSnapshot {
  dse::DesignDb db;
  rel::ClrSpace space{std::vector<rel::ClrConfig>{}};
  /// Present when the file carried a DrcMatrix section; loaders then skip
  /// the O(n²·tasks) rebuild entirely.
  std::optional<rt::DrcMatrix> drc;
  /// Present when the file carried an MdpPolicy section; loaders then skip
  /// the offline value-iteration solve entirely.
  std::optional<rt::MdpTable> mdp;
};

/// Copy a validated view into owning DesignDb/ClrSpace/DrcMatrix values.
/// Validates the cross-section invariants the flat tables cannot express
/// (clr indices inside the space, monotone CSR offsets already checked).
/// Rejects checkpoint-holding files (those go through io/checkpoint.hpp).
LoadedSnapshot materialize(const SnapshotView& view);

/// Serialize a design database. `drc` and `mdp` are optional; each must span
/// the database's points (BadValue otherwise).
std::string serialize_snapshot(const dse::DesignDb& db, const rel::ClrSpace& space,
                               const rt::DrcMatrix* drc = nullptr,
                               const rt::MdpTable* mdp = nullptr);

/// Durably write `bytes` to `path`: write to `path + ".tmp"`, fsync the file,
/// rename over `path`, then fsync the parent directory — after a power-cut
/// crash the destination holds either the old bytes or the new bytes, never
/// a torn or zero-length file. Throws SnapshotError (Kind::Io) on failure;
/// a failed attempt never disturbs an existing good file at `path`.
void write_file_durable(const std::string& path, std::string_view bytes);

/// Write a .clrdb file via write_file_durable (atomic and power-cut safe).
void save_snapshot(const std::string& path, const dse::DesignDb& db, const rel::ClrSpace& space,
                   const rt::DrcMatrix* drc = nullptr, const rt::MdpTable* mdp = nullptr);

/// open() + materialize() in one call. A SnapshotError names `path`.
LoadedSnapshot load_snapshot(const std::string& path);

/// True when `path` names a .clrdb artifact by extension: picks the format
/// `clrtool explore --db-out` writes. Readers never use it — they dispatch
/// on content (has_snapshot_magic, io::load_design_db).
bool is_snapshot_path(const std::string& path);

/// True when `bytes` starts with the snapshot magic (format dispatch for
/// loaders that accept both JSON and .clrdb).
bool has_snapshot_magic(std::string_view bytes);

namespace detail {

/// Throw a SnapshotError of `kind`.
[[noreturn]] void fail(SnapshotError::Kind kind, const std::string& message);

/// Append `v`'s little-endian bytes (memcpy: alignment-safe, a plain store on
/// every supported target).
template <typename T>
void append_scalar(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

/// Zero-pad `out` to a multiple of 8 bytes (every section is 8-aligned).
inline void pad_to_8(std::string& out) { out.append((8 - out.size() % 8) % 8, '\0'); }

/// One raw section destined for a .clrdb container.
struct RawSection {
  std::uint32_t kind = 0;
  std::string bytes;
};

/// Assemble a complete .clrdb image (magic, header at kSnapshotVersion,
/// checksum, section table, 8-aligned payload) around pre-encoded section
/// bytes. Shared by the design-database serializer and the checkpoint writers
/// so the container discipline (alignment, checksum coverage) cannot drift
/// between them.
std::string assemble_snapshot_container(std::vector<RawSection> sections);

}  // namespace detail

}  // namespace clr::io
