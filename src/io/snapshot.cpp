#include "io/snapshot.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define CLR_SNAPSHOT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/hash.hpp"

// The format is defined little-endian and the zero-copy view reinterprets
// the mapped bytes in place. Big-endian hosts would need a byte-swapping
// materialize path; none of the supported targets are big-endian, so fail
// the build loudly instead of corrupting data silently.
static_assert(std::endian::native == std::endian::little,
              "io::snapshot requires a little-endian host (zero-copy .clrdb views)");

namespace clr::io {

namespace {

constexpr std::uint8_t kMagic[8] = {0x89, 'C', 'L', 'R', 'D', 'B', 0x0D, 0x0A};
constexpr std::size_t kHeaderSize = 40;
constexpr std::size_t kSectionEntrySize = 24;
/// Backstop against absurd section tables in hostile headers; version 1
/// defines three section kinds, so even future formats stay far below this.
constexpr std::uint32_t kMaxSections = 256;
/// Element-count caps keeping every size computation far from u64 overflow.
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxDrcPoints = std::uint64_t{1} << 26;
/// Per-axis cap on the MdpPolicy QoS-bin grid (the builder caps the whole
/// state space at 2^22, so any honest file stays far below this).
constexpr std::uint32_t kMaxMdpBins = 1u << 16;

std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

// --- Little-endian scalar access (memcpy: alignment-safe, optimizes to a
// plain load/store on every supported target). ---

template <typename T>
T load_scalar(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void append_scalar(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void pad_to_8(std::string& out) { out.append(align8(out.size()) - out.size(), '\0'); }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One validated section-table entry.
struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

[[noreturn]] void fail(SnapshotError::Kind kind, const std::string& message) {
  throw SnapshotError(kind, message);
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotView::attach — full hostile-input validation
// ---------------------------------------------------------------------------

SnapshotView SnapshotView::attach(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  if (reinterpret_cast<std::uintptr_t>(bytes) % 8 != 0) {
    fail(SnapshotError::Kind::BadValue, "buffer is not 8-byte aligned");
  }
  if (size < sizeof kMagic) {
    fail(SnapshotError::Kind::Truncated,
         "file of " + std::to_string(size) + " bytes is shorter than the 8-byte magic");
  }
  if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0) {
    fail(SnapshotError::Kind::BadMagic, "bad magic (not a .clrdb snapshot)");
  }
  if (size < kHeaderSize) {
    fail(SnapshotError::Kind::Truncated, "file of " + std::to_string(size) +
                                             " bytes is shorter than the " +
                                             std::to_string(kHeaderSize) + "-byte header");
  }

  SnapshotView v;
  v.version_ = load_scalar<std::uint32_t>(bytes + 8);
  if (v.version_ == 0 || v.version_ > kSnapshotVersion) {
    fail(SnapshotError::Kind::BadVersion,
         "snapshot version " + std::to_string(v.version_) + " (this reader supports 1.." +
             std::to_string(kSnapshotVersion) + ")");
  }
  const auto flags = load_scalar<std::uint32_t>(bytes + 12);
  if (flags != 0) {
    fail(SnapshotError::Kind::BadValue,
         "unknown header flags " + hex(flags) + " (version " + std::to_string(v.version_) +
             " defines none)");
  }
  const auto declared_size = load_scalar<std::uint64_t>(bytes + 16);
  if (declared_size != size) {
    fail(SnapshotError::Kind::Truncated, "header declares " + std::to_string(declared_size) +
                                             " bytes but the buffer holds " +
                                             std::to_string(size));
  }
  const auto stored_checksum = load_scalar<std::uint64_t>(bytes + 24);
  const auto section_count = load_scalar<std::uint32_t>(bytes + 32);
  const auto header_reserved = load_scalar<std::uint32_t>(bytes + 36);
  if (header_reserved != 0) {
    fail(SnapshotError::Kind::BadValue,
         "reserved header field is " + hex(header_reserved) + " (must be 0)");
  }
  if (section_count > kMaxSections) {
    fail(SnapshotError::Kind::Bounds, "section count " + std::to_string(section_count) +
                                          " exceeds the format limit of " +
                                          std::to_string(kMaxSections));
  }
  const std::uint64_t payload_start =
      kHeaderSize + std::uint64_t{section_count} * kSectionEntrySize;
  if (payload_start > size) {
    fail(SnapshotError::Kind::Truncated,
         "section table needs " + std::to_string(payload_start) + " bytes but the file has " +
             std::to_string(size));
  }

  // Content integrity before structure: a flipped payload byte must surface
  // as a checksum mismatch, not as whichever structural check it confuses.
  const std::uint64_t computed_checksum = util::fnv1a(bytes + payload_start, size - payload_start);
  if (computed_checksum != stored_checksum) {
    fail(SnapshotError::Kind::Checksum, "stored payload checksum " + hex(stored_checksum) +
                                            " but the payload hashes to " +
                                            hex(computed_checksum));
  }

  // Section table: bounds-check every entry against the buffer before any
  // payload byte is interpreted. Version 1 defines kinds 1..3; version 2
  // adds the checkpoint kinds 5..6; version 3 adds the fleet checkpoint
  // kind 7; version 4 adds the MdpPolicy companion kind 8 (4 stays reserved
  // throughout).
  const auto kind_allowed = [&](std::uint32_t kind) {
    if (kind >= 1 && kind <= 3) return true;
    if (v.version_ >= 2 && (kind == 5 || kind == 6)) return true;
    if (v.version_ >= 3 && kind == 7) return true;
    return v.version_ >= 4 && kind == 8;
  };
  std::vector<SectionEntry> sections;
  sections.reserve(section_count);
  bool seen[9] = {};
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* e = bytes + kHeaderSize + std::size_t{i} * kSectionEntrySize;
    SectionEntry s;
    s.kind = load_scalar<std::uint32_t>(e);
    const auto reserved = load_scalar<std::uint32_t>(e + 4);
    s.offset = load_scalar<std::uint64_t>(e + 8);
    s.size = load_scalar<std::uint64_t>(e + 16);
    if (reserved != 0) {
      fail(SnapshotError::Kind::BadValue,
           "section " + std::to_string(i) + ": reserved field is " + hex(reserved));
    }
    if (!kind_allowed(s.kind)) {
      fail(SnapshotError::Kind::BadValue,
           "unknown section kind " + std::to_string(s.kind) + " (version " +
               std::to_string(v.version_) +
               (v.version_ == 1   ? " defines kinds 1..3)"
                : v.version_ == 2 ? " defines kinds 1..3, 5..6)"
                : v.version_ == 3 ? " defines kinds 1..3, 5..7)"
                                  : " defines kinds 1..3, 5..8)"));
    }
    if (seen[s.kind]) {
      fail(SnapshotError::Kind::BadValue, "duplicate section kind " + std::to_string(s.kind));
    }
    seen[s.kind] = true;
    if (s.offset % 8 != 0) {
      fail(SnapshotError::Kind::Bounds, "section " + std::to_string(i) + ": offset " +
                                            std::to_string(s.offset) + " is not 8-byte aligned");
    }
    if (s.offset < payload_start || s.offset > size || s.size > size - s.offset) {
      fail(SnapshotError::Kind::Bounds, "section " + std::to_string(i) + ": [" +
                                            std::to_string(s.offset) + ", +" +
                                            std::to_string(s.size) + ") escapes the " +
                                            std::to_string(size) + "-byte file");
    }
    sections.push_back(s);
  }
  // Shape rule: a file is either a design database (ClrSpace + DesignPoints
  // [+ DrcMatrix] [+ MdpPolicy from version 4]) or, from version 2, a single
  // checkpoint section. The only-section rule below already forbids an
  // MdpPolicy companion riding with a checkpoint; the required-sections rule
  // forbids it without its design database.
  const bool has_checkpoint_section =
      seen[static_cast<std::uint32_t>(SnapshotSection::ExploreState)] ||
      seen[static_cast<std::uint32_t>(SnapshotSection::RunnerState)] ||
      seen[static_cast<std::uint32_t>(SnapshotSection::FleetState)];
  if (has_checkpoint_section) {
    if (section_count != 1) {
      fail(SnapshotError::Kind::BadValue,
           "a checkpoint section must be the file's only section, found " +
               std::to_string(section_count));
    }
  } else if (!seen[static_cast<std::uint32_t>(SnapshotSection::ClrSpace)] ||
             !seen[static_cast<std::uint32_t>(SnapshotSection::DesignPoints)]) {
    fail(SnapshotError::Kind::BadValue,
         "missing required section (a design database requires ClrSpace=1 and DesignPoints=2)");
  }

  // Per-section structural decode. Every count is validated against the
  // section's byte size before a span is formed.
  for (const SectionEntry& s : sections) {
    const std::uint8_t* p = bytes + s.offset;
    switch (static_cast<SnapshotSection>(s.kind)) {
      case SnapshotSection::ClrSpace: {
        if (s.size < 8) {
          fail(SnapshotError::Kind::Truncated, "ClrSpace section of " + std::to_string(s.size) +
                                                   " bytes cannot hold its 8-byte count");
        }
        const auto count = load_scalar<std::uint64_t>(p);
        if (count == 0 || count > kMaxCount) {
          fail(SnapshotError::Kind::BadValue,
               "ClrSpace count " + std::to_string(count) + " (want 1.." +
                   std::to_string(kMaxCount) + ")");
        }
        const std::uint64_t required = align8(8 + count * 4);
        if (required != s.size) {
          fail(SnapshotError::Kind::Bounds, "ClrSpace section holds " + std::to_string(s.size) +
                                                " bytes but " + std::to_string(count) +
                                                " configs need " + std::to_string(required));
        }
        v.clr_count_ = static_cast<std::size_t>(count);
        v.clr_configs_ = {p + 8, static_cast<std::size_t>(count) * 4};
        break;
      }
      case SnapshotSection::DesignPoints: {
        if (s.size < 16) {
          fail(SnapshotError::Kind::Truncated, "DesignPoints section of " +
                                                   std::to_string(s.size) +
                                                   " bytes cannot hold its two 8-byte counts");
        }
        const auto np = load_scalar<std::uint64_t>(p);
        const auto na = load_scalar<std::uint64_t>(p + 8);
        if (np > kMaxCount || na > kMaxCount) {
          fail(SnapshotError::Kind::Bounds, "DesignPoints counts (" + std::to_string(np) + ", " +
                                                std::to_string(na) + ") exceed the format limit");
        }
        const std::uint64_t required =
            align8(16 + (np + 1) * 8 + 3 * np * 8 + align8(np) + 4 * na * 4);
        if (required != s.size) {
          fail(SnapshotError::Kind::Bounds,
               "DesignPoints section holds " + std::to_string(s.size) + " bytes but " +
                   std::to_string(np) + " points / " + std::to_string(na) +
                   " assignments need " + std::to_string(required));
        }
        v.num_points_ = static_cast<std::size_t>(np);
        v.num_assignments_ = static_cast<std::size_t>(na);
        std::uint64_t at = 16;
        const auto take = [&](std::uint64_t bytes_needed) {
          const std::uint8_t* field = p + at;
          at += bytes_needed;
          return field;
        };
        v.point_off_ = {reinterpret_cast<const std::uint64_t*>(take((np + 1) * 8)),
                        static_cast<std::size_t>(np + 1)};
        v.energy_ = {reinterpret_cast<const double*>(take(np * 8)),
                     static_cast<std::size_t>(np)};
        v.makespan_ = {reinterpret_cast<const double*>(take(np * 8)),
                       static_cast<std::size_t>(np)};
        v.func_rel_ = {reinterpret_cast<const double*>(take(np * 8)),
                       static_cast<std::size_t>(np)};
        v.extra_ = {take(align8(np)), static_cast<std::size_t>(np)};
        v.pe_ = {reinterpret_cast<const std::uint32_t*>(take(na * 4)),
                 static_cast<std::size_t>(na)};
        v.impl_ = {reinterpret_cast<const std::uint32_t*>(take(na * 4)),
                   static_cast<std::size_t>(na)};
        v.clr_index_ = {reinterpret_cast<const std::uint32_t*>(take(na * 4)),
                        static_cast<std::size_t>(na)};
        v.priority_ = {reinterpret_cast<const std::int32_t*>(take(na * 4)),
                       static_cast<std::size_t>(na)};
        // CSR invariants: offsets start at 0, never decrease, end at na.
        if (v.point_off_[0] != 0 || v.point_off_[v.num_points_] != na) {
          fail(SnapshotError::Kind::BadValue,
               "assignment offsets must run from 0 to " + std::to_string(na) + ", found [" +
                   std::to_string(v.point_off_[0]) + ", " +
                   std::to_string(v.point_off_[v.num_points_]) + "]");
        }
        for (std::size_t i = 0; i < v.num_points_; ++i) {
          if (v.point_off_[i] > v.point_off_[i + 1]) {
            fail(SnapshotError::Kind::BadValue,
                 "assignment offsets decrease at point " + std::to_string(i) + " (" +
                     std::to_string(v.point_off_[i]) + " > " +
                     std::to_string(v.point_off_[i + 1]) + ")");
          }
        }
        break;
      }
      case SnapshotSection::DrcMatrix: {
        if (s.size < 8) {
          fail(SnapshotError::Kind::Truncated, "DrcMatrix section of " + std::to_string(s.size) +
                                                   " bytes cannot hold its 8-byte count");
        }
        const auto n = load_scalar<std::uint64_t>(p);
        if (n > kMaxDrcPoints) {
          fail(SnapshotError::Kind::Bounds,
               "DrcMatrix size " + std::to_string(n) + " exceeds the format limit of " +
                   std::to_string(kMaxDrcPoints));
        }
        const std::uint64_t required = 8 + n * n * 8;
        if (required != s.size) {
          fail(SnapshotError::Kind::Bounds, "DrcMatrix section holds " + std::to_string(s.size) +
                                                " bytes but " + std::to_string(n) + "x" +
                                                std::to_string(n) + " costs need " +
                                                std::to_string(required));
        }
        v.drc_present_ = true;
        v.drc_costs_ = {reinterpret_cast<const double*>(p + 8),
                        static_cast<std::size_t>(n * n)};
        break;
      }
      case SnapshotSection::MdpPolicy: {
        // Fixed 80-byte preamble: u32 makespan_bins, u32 func_rel_bins,
        // u64 num_points, f64 gamma, f64 p_rc, f64 ranges[6]; then
        // u32 policy[S] (8-padded) and f64 values[S], S = bins · num_points.
        if (s.size < 80) {
          fail(SnapshotError::Kind::Truncated, "MdpPolicy section of " + std::to_string(s.size) +
                                                   " bytes cannot hold its 80-byte preamble");
        }
        const auto mb = load_scalar<std::uint32_t>(p);
        const auto fb = load_scalar<std::uint32_t>(p + 4);
        const auto np = load_scalar<std::uint64_t>(p + 8);
        if (mb == 0 || fb == 0 || mb > kMaxMdpBins || fb > kMaxMdpBins) {
          fail(SnapshotError::Kind::BadValue,
               "MdpPolicy bin grid " + std::to_string(mb) + "x" + std::to_string(fb) +
                   " (each axis wants 1.." + std::to_string(kMaxMdpBins) + ")");
        }
        if (np == 0 || np > kMaxCount) {
          fail(SnapshotError::Kind::BadValue, "MdpPolicy point count " + std::to_string(np) +
                                                  " (want 1.." + std::to_string(kMaxCount) + ")");
        }
        const std::uint64_t states = std::uint64_t{mb} * fb * np;
        if (states > kMaxCount) {
          fail(SnapshotError::Kind::Bounds, "MdpPolicy state count " + std::to_string(states) +
                                                " exceeds the format limit of " +
                                                std::to_string(kMaxCount));
        }
        const std::uint64_t required = 80 + align8(states * 4) + states * 8;
        if (required != s.size) {
          fail(SnapshotError::Kind::Bounds, "MdpPolicy section holds " + std::to_string(s.size) +
                                                " bytes but " + std::to_string(states) +
                                                " states need " + std::to_string(required));
        }
        v.mdp_present_ = true;
        v.mdp_makespan_bins_ = mb;
        v.mdp_func_rel_bins_ = fb;
        v.mdp_num_points_ = np;
        v.mdp_gamma_ = load_scalar<double>(p + 16);
        v.mdp_p_rc_ = load_scalar<double>(p + 24);
        v.mdp_ranges_ = {reinterpret_cast<const double*>(p + 32), 6};
        v.mdp_policy_ = {reinterpret_cast<const std::uint32_t*>(p + 80),
                         static_cast<std::size_t>(states)};
        v.mdp_values_ = {reinterpret_cast<const double*>(p + 80 + align8(states * 4)),
                         static_cast<std::size_t>(states)};
        for (std::size_t i = 0; i < v.mdp_policy_.size(); ++i) {
          if (v.mdp_policy_[i] >= np) {
            fail(SnapshotError::Kind::BadValue,
                 "MdpPolicy state " + std::to_string(i) + ": action " +
                     std::to_string(v.mdp_policy_[i]) + " outside the " + std::to_string(np) +
                     "-point database");
          }
        }
        break;
      }
      case SnapshotSection::ExploreState:
      case SnapshotSection::RunnerState:
      case SnapshotSection::FleetState: {
        // The payload is an opaque record stream decoded by io/checkpoint.cpp
        // (bounded cursor, typed errors). attach() only guarantees the span
        // is in bounds and can hold the leading sequence + identity hash.
        if (s.size < 16) {
          fail(SnapshotError::Kind::Truncated,
               "checkpoint section of " + std::to_string(s.size) +
                   " bytes cannot hold its 16-byte preamble");
        }
        v.checkpoint_kind_ = s.kind;
        v.checkpoint_payload_ = {p, static_cast<std::size_t>(s.size)};
        break;
      }
    }
  }

  // Cross-section invariants.
  if (v.drc_present_) {
    const std::size_t n = v.num_points_;
    if (v.drc_costs_.size() != n * n) {
      fail(SnapshotError::Kind::BadValue,
           "DrcMatrix covers " + std::to_string(v.drc_costs_.size()) + " entries but the " +
               std::to_string(n) + "-point database needs " + std::to_string(n * n));
    }
  }
  if (v.mdp_present_ && v.mdp_num_points_ != v.num_points_) {
    fail(SnapshotError::Kind::BadValue,
         "MdpPolicy was solved over " + std::to_string(v.mdp_num_points_) +
             " points but the database holds " + std::to_string(v.num_points_));
  }
  for (std::size_t i = 0; i < v.num_assignments_; ++i) {
    if (v.clr_index_[i] >= v.clr_count_) {
      fail(SnapshotError::Kind::BadValue, "assignment " + std::to_string(i) +
                                              ": CLR index " + std::to_string(v.clr_index_[i]) +
                                              " outside the " + std::to_string(v.clr_count_) +
                                              "-entry CLR space");
    }
  }
  return v;
}

rel::ClrConfig SnapshotView::clr_config(std::size_t i) const {
  const std::uint8_t* p = clr_configs_.data() + i * 4;
  rel::ClrConfig c;
  c.hw = static_cast<rel::HwTechnique>(p[0]);
  c.ssw = static_cast<rel::SswTechnique>(p[1]);
  c.asw = static_cast<rel::AswTechnique>(p[2]);
  c.ssw_param = p[3];
  return c;
}

// ---------------------------------------------------------------------------
// Serialization (version-gated)
// ---------------------------------------------------------------------------

namespace {

std::string encode_clr_space(const rel::ClrSpace& space) {
  std::string out;
  append_scalar<std::uint64_t>(out, space.size());
  for (const rel::ClrConfig& c : space.configs()) {
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(c.hw)));
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(c.ssw)));
    out.push_back(static_cast<char>(static_cast<std::uint8_t>(c.asw)));
    out.push_back(static_cast<char>(c.ssw_param));
  }
  pad_to_8(out);
  return out;
}

std::string encode_design_points(const dse::DesignDb& db) {
  std::string out;
  std::uint64_t na = 0;
  for (const auto& p : db.points()) na += p.config.tasks.size();
  append_scalar<std::uint64_t>(out, db.size());
  append_scalar<std::uint64_t>(out, na);
  std::uint64_t off = 0;
  for (const auto& p : db.points()) {
    append_scalar<std::uint64_t>(out, off);
    off += p.config.tasks.size();
  }
  append_scalar<std::uint64_t>(out, off);
  for (const auto& p : db.points()) append_scalar<double>(out, p.energy);
  for (const auto& p : db.points()) append_scalar<double>(out, p.makespan);
  for (const auto& p : db.points()) append_scalar<double>(out, p.func_rel);
  for (const auto& p : db.points()) out.push_back(p.extra ? '\1' : '\0');
  pad_to_8(out);
  for (const auto& p : db.points()) {
    for (const auto& a : p.config.tasks) append_scalar<std::uint32_t>(out, a.pe);
  }
  for (const auto& p : db.points()) {
    for (const auto& a : p.config.tasks) append_scalar<std::uint32_t>(out, a.impl_index);
  }
  for (const auto& p : db.points()) {
    for (const auto& a : p.config.tasks) append_scalar<std::uint32_t>(out, a.clr_index);
  }
  for (const auto& p : db.points()) {
    for (const auto& a : p.config.tasks) append_scalar<std::int32_t>(out, a.priority);
  }
  pad_to_8(out);
  return out;
}

std::string encode_drc(const rt::DrcMatrix& drc) {
  std::string out;
  const std::size_t n = drc.size();
  append_scalar<std::uint64_t>(out, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) append_scalar<double>(out, drc.drc(i, j));
  }
  return out;
}

std::string encode_mdp_table(const rt::MdpTable& mdp) {
  std::string out;
  append_scalar<std::uint32_t>(out, mdp.makespan_bins);
  append_scalar<std::uint32_t>(out, mdp.func_rel_bins);
  append_scalar<std::uint64_t>(out, mdp.num_points);
  append_scalar<double>(out, mdp.gamma);
  append_scalar<double>(out, mdp.p_rc);
  append_scalar<double>(out, mdp.ranges.energy_min);
  append_scalar<double>(out, mdp.ranges.energy_max);
  append_scalar<double>(out, mdp.ranges.makespan_min);
  append_scalar<double>(out, mdp.ranges.makespan_max);
  append_scalar<double>(out, mdp.ranges.func_rel_min);
  append_scalar<double>(out, mdp.ranges.func_rel_max);
  for (std::uint32_t a : mdp.policy) append_scalar<std::uint32_t>(out, a);
  pad_to_8(out);
  for (double value : mdp.values) append_scalar<double>(out, value);
  return out;
}

}  // namespace

namespace detail {

std::string assemble_snapshot_container(std::uint32_t version,
                                        std::vector<RawSection> sections) {
  const std::uint64_t payload_start = kHeaderSize + sections.size() * kSectionEntrySize;
  std::string payload;
  std::vector<SectionEntry> table;
  for (const RawSection& p : sections) {
    SectionEntry e;
    e.kind = p.kind;
    e.offset = payload_start + payload.size();
    e.size = p.bytes.size();
    table.push_back(e);
    payload += p.bytes;
  }

  std::string out;
  out.reserve(payload_start + payload.size());
  out.append(reinterpret_cast<const char*>(kMagic), sizeof kMagic);
  append_scalar<std::uint32_t>(out, version);
  append_scalar<std::uint32_t>(out, 0);  // flags
  append_scalar<std::uint64_t>(out, payload_start + payload.size());
  append_scalar<std::uint64_t>(out, util::fnv1a(payload.data(), payload.size()));
  append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(table.size()));
  append_scalar<std::uint32_t>(out, 0);  // reserved
  for (const SectionEntry& e : table) {
    append_scalar<std::uint32_t>(out, e.kind);
    append_scalar<std::uint32_t>(out, 0);
    append_scalar<std::uint64_t>(out, e.offset);
    append_scalar<std::uint64_t>(out, e.size);
  }
  out += payload;
  return out;
}

}  // namespace detail

std::string serialize_snapshot_for_version(std::uint32_t version, const dse::DesignDb& db,
                                           const rel::ClrSpace& space,
                                           const rt::DrcMatrix* drc,
                                           const rt::MdpTable* mdp) {
  // The design-database sections are layout-identical in versions 1..4;
  // only the header version differs (versions 2 and 3 additionally *allow*
  // checkpoint sections, which this writer never emits, and version 4 the
  // MdpPolicy companion below).
  if (version != 1 && version != 2 && version != 3 && version != 4) {
    fail(SnapshotError::Kind::BadVersion,
         "cannot serialize snapshot version " + std::to_string(version) +
             " (this writer supports 1.." + std::to_string(kSnapshotVersion) + ")");
  }
  if (drc != nullptr && drc->size() != db.size()) {
    fail(SnapshotError::Kind::BadValue,
         "DrcMatrix spans " + std::to_string(drc->size()) + " points but the database holds " +
             std::to_string(db.size()));
  }
  if (mdp != nullptr && version < 4) {
    fail(SnapshotError::Kind::BadVersion,
         "an MdpPolicy section needs format version 4, cannot emit it at version " +
             std::to_string(version));
  }
  if (mdp != nullptr && mdp->num_points != db.size()) {
    fail(SnapshotError::Kind::BadValue,
         "MdpPolicy was solved over " + std::to_string(mdp->num_points) +
             " points but the database holds " + std::to_string(db.size()));
  }

  std::vector<detail::RawSection> sections;
  sections.push_back({static_cast<std::uint32_t>(SnapshotSection::ClrSpace),
                      encode_clr_space(space)});
  sections.push_back({static_cast<std::uint32_t>(SnapshotSection::DesignPoints),
                      encode_design_points(db)});
  if (drc != nullptr) {
    sections.push_back({static_cast<std::uint32_t>(SnapshotSection::DrcMatrix),
                        encode_drc(*drc)});
  }
  if (mdp != nullptr) {
    sections.push_back({static_cast<std::uint32_t>(SnapshotSection::MdpPolicy),
                        encode_mdp_table(*mdp)});
  }
  return detail::assemble_snapshot_container(version, std::move(sections));
}

std::string serialize_snapshot(const dse::DesignDb& db, const rel::ClrSpace& space,
                               const rt::DrcMatrix* drc, const rt::MdpTable* mdp) {
  return serialize_snapshot_for_version(kSnapshotVersion, db, space, drc, mdp);
}

void write_file_durable(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
#if defined(CLR_SNAPSHOT_HAVE_MMAP)
  // tmp + write + fsync(file) + rename + fsync(directory): rename-only
  // atomicity protects against a crashed *writer*, but without the fsyncs a
  // power cut can still leave a zero-length or torn destination (the rename
  // may reach disk before the data does). The directory fsync persists the
  // rename itself.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail(SnapshotError::Kind::Io, "cannot open " + tmp + " for writing");
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      fail(SnapshotError::Kind::Io, "short write to " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail(SnapshotError::Kind::Io, "cannot fsync " + tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail(SnapshotError::Kind::Io, "cannot close " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail(SnapshotError::Kind::Io, "cannot rename " + tmp + " to " + path);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    // Best-effort: some filesystems reject directory fsync; the rename above
    // already succeeded, so don't fail the save over it.
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
#else
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) fail(SnapshotError::Kind::Io, "cannot open " + tmp + " for writing");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f) fail(SnapshotError::Kind::Io, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(SnapshotError::Kind::Io, "cannot rename " + tmp + " to " + path);
  }
#endif
}

void save_snapshot(const std::string& path, const dse::DesignDb& db, const rel::ClrSpace& space,
                   const rt::DrcMatrix* drc, const rt::MdpTable* mdp) {
  write_file_durable(path, serialize_snapshot(db, space, drc, mdp));
}

// ---------------------------------------------------------------------------
// Snapshot (owning mmap / arena)
// ---------------------------------------------------------------------------

Snapshot::Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    reset();
    view_ = other.view_;
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    arena_ = std::move(other.arena_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
    other.view_ = SnapshotView{};
  }
  return *this;
}

Snapshot::~Snapshot() { reset(); }

void Snapshot::reset() noexcept {
#if defined(CLR_SNAPSHOT_HAVE_MMAP)
  if (mapped_ && data_ != nullptr) munmap(data_, size_);
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  arena_.clear();
}

Snapshot Snapshot::from_bytes(std::string bytes) {
  Snapshot s;
  s.arena_ = std::move(bytes);
  s.data_ = s.arena_.data();
  s.size_ = s.arena_.size();
  s.view_ = SnapshotView::attach(s.data_, s.size_);
  return s;
}

Snapshot Snapshot::open(const std::string& path) {
#if defined(CLR_SNAPSHOT_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    struct stat st {};
    if (fstat(fd, &st) == 0 && st.st_size > 0) {
      void* map = mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ, MAP_PRIVATE,
                       fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
        Snapshot s;
        s.data_ = map;
        s.size_ = static_cast<std::size_t>(st.st_size);
        s.mapped_ = true;
        // attach() throwing unwinds through ~Snapshot, which unmaps.
        s.view_ = SnapshotView::attach(s.data_, s.size_);
        return s;
      }
      // mmap failure (e.g. a pseudo-filesystem): fall through to the read path.
    } else {
      ::close(fd);
    }
  }
#endif
  std::ifstream f(path, std::ios::binary);
  if (!f) fail(SnapshotError::Kind::Io, "cannot open " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return from_bytes(std::move(buffer).str());
}

// ---------------------------------------------------------------------------
// Materialization
// ---------------------------------------------------------------------------

namespace {

LoadedSnapshot materialize_v1(const SnapshotView& view) {
  LoadedSnapshot loaded;

  std::vector<rel::ClrConfig> configs;
  configs.reserve(view.clr_space_size());
  for (std::size_t i = 0; i < view.clr_space_size(); ++i) configs.push_back(view.clr_config(i));
  loaded.space = rel::ClrSpace(std::move(configs));

  loaded.db.reserve(view.num_points());
  const auto off = view.point_offsets();
  for (std::size_t i = 0; i < view.num_points(); ++i) {
    dse::DesignPoint p;
    p.energy = view.energy()[i];
    p.makespan = view.makespan()[i];
    p.func_rel = view.func_rel()[i];
    p.extra = view.extra()[i] != 0;
    const std::size_t first = static_cast<std::size_t>(off[i]);
    const std::size_t count = static_cast<std::size_t>(off[i + 1] - off[i]);
    p.config.tasks.resize(count);
    for (std::size_t t = 0; t < count; ++t) {
      sched::TaskAssignment& a = p.config.tasks[t];
      a.pe = view.assignment_pe()[first + t];
      a.impl_index = view.assignment_impl()[first + t];
      a.clr_index = view.assignment_clr()[first + t];
      a.priority = view.assignment_priority()[first + t];
    }
    loaded.db.add(std::move(p));
  }

  if (view.has_drc()) {
    const auto costs = view.drc_costs();
    loaded.drc.emplace(view.num_points(), std::vector<double>(costs.begin(), costs.end()));
  }

  if (view.has_mdp()) {
    rt::MdpTable table;
    table.makespan_bins = view.mdp_makespan_bins();
    table.func_rel_bins = view.mdp_func_rel_bins();
    table.num_points = view.mdp_num_points();
    table.gamma = view.mdp_gamma();
    table.p_rc = view.mdp_p_rc();
    const auto r = view.mdp_ranges();
    table.ranges.energy_min = r[0];
    table.ranges.energy_max = r[1];
    table.ranges.makespan_min = r[2];
    table.ranges.makespan_max = r[3];
    table.ranges.func_rel_min = r[4];
    table.ranges.func_rel_max = r[5];
    table.policy.assign(view.mdp_policy().begin(), view.mdp_policy().end());
    table.values.assign(view.mdp_values().begin(), view.mdp_values().end());
    loaded.mdp = std::move(table);
  }
  return loaded;
}

}  // namespace

LoadedSnapshot materialize(const SnapshotView& view) {
  if (view.has_checkpoint()) {
    fail(SnapshotError::Kind::BadValue,
         "file holds a checkpoint (section kind " +
             std::to_string(view.checkpoint_section_kind()) +
             "), not a design database — resume it with --resume / io::checkpoint");
  }
  switch (view.version()) {
    // The design-database sections are layout-identical in versions 1..4
    // (version 4 can additionally carry the MdpPolicy companion, which
    // materialize_v1 copies out when present).
    case 1:
    case 2:
    case 3:
    case 4:
      return materialize_v1(view);
    default: break;
  }
  // attach() already rejects unknown versions; keep the dispatch total anyway.
  fail(SnapshotError::Kind::BadVersion,
       "no materializer for snapshot version " + std::to_string(view.version()) +
           " (this reader supports 1.." + std::to_string(kSnapshotVersion) + ")");
}

LoadedSnapshot load_snapshot(const std::string& path) {
  const Snapshot snapshot = Snapshot::open(path);
  return materialize(snapshot.view());
}

bool is_snapshot_path(const std::string& path) {
  const std::string suffix = ".clrdb";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool has_snapshot_magic(std::string_view bytes) {
  return bytes.size() >= sizeof kMagic &&
         std::memcmp(bytes.data(), kMagic, sizeof kMagic) == 0;
}

}  // namespace clr::io
