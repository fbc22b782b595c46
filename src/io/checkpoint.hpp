#pragma once
// Crash-safe run checkpoints in the `.clrdb` container (DESIGN.md §5.12).
//
// A checkpoint file is a `.clrdb` holding exactly one section: ExploreState
// (the design-flow's restartable state at a GA generation boundary),
// RunnerState (the replication jobs an exp::Runner grid has completed) or
// FleetState (the aggregation blocks a fleet::run_fleet run has fully
// accumulated). The container layer (io/snapshot.hpp) supplies the magic,
// header, FNV-1a checksum and section bounds; this layer owns the payload
// encoding — a little-endian byte stream decoded through a bounded cursor,
// so hostile or torn payloads surface as typed SnapshotErrors, never as
// out-of-bounds reads.
//
// Both payloads start with the same 16-byte preamble:
//   u64 sequence     monotone save counter (the A/B store picks the newest)
//   u64 identity     param_hash / grid_hash — resuming under different
//                    parameters is refused instead of silently diverging
//
// Atomicity: checkpoints are written through CheckpointStore, an A/B slot
// pair (`<base>.a` / `<base>.b`) where each save goes durably (tmp + fsync +
// rename + directory fsync) into the slot NOT holding the newest good
// checkpoint. A torn or corrupted write therefore always leaves the previous
// good checkpoint loadable in the sibling slot.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dse/design_db.hpp"
#include "fleet/progress.hpp"
#include "io/snapshot.hpp"
#include "moea/control.hpp"
#include "runtime/simulator.hpp"

namespace clr::io {

/// Restartable design-flow state (clrtool explore). Captures which stage is
/// in flight, the pre-GA calibration products (reference point, scales, the
/// derived QoS spec — all computed from RNG draws that precede the saved GA
/// boundary), the GA boundary state itself, and the databases accumulated by
/// completed stages.
struct ExploreCheckpoint {
  std::uint64_t sequence = 0;
  /// Hash of every result-affecting flow parameter (exp::explore_param_hash);
  /// resume refuses a mismatch.
  std::uint64_t param_hash = 0;
  /// 0 = BaseD stage in flight, 1 = ReD stage in flight.
  std::uint32_t stage = 0;
  /// The derived QoS spec (flow-level, computed before the base stage).
  double spec_max_makespan = 0.0;
  double spec_min_func_rel = 0.0;
  /// Eq. (5) reference point and objective scales (base stage only; empty
  /// in red-stage checkpoints).
  std::vector<double> ref;
  std::vector<double> scale;
  /// The in-flight GA's boundary state (population, archive, RNG stream,
  /// generation counter).
  moea::GaState ga;
  /// ReD stage: position in the deterministic seed schedule.
  std::uint64_t red_seed_pos = 0;
  /// BaseD database (red-stage checkpoints; empty while the base stage runs).
  dse::DesignDb based;
  /// ReD database accumulated from completed seeds (red stage only).
  dse::DesignDb red;
};

/// Restartable exp::Runner grid state: which replication jobs (cell ×
/// replication) are done, and their stripped RuntimeStats (traces are not
/// persisted — aggregation never reads them). Job order is the Runner's
/// deterministic (cell-major, replication-minor) order.
struct RunnerCheckpoint {
  std::uint64_t sequence = 0;
  /// Hash of the grid's result-affecting identity (exp::Runner::grid_hash);
  /// resume refuses a mismatch.
  std::uint64_t grid_hash = 0;
  std::uint64_t replications = 0;
  /// One flag per job, 1 = completed. Size = cells × replications.
  std::vector<std::uint8_t> done;
  /// One record per job (same indexing as `done`); meaningful only where
  /// done[i] != 0.
  std::vector<rt::RuntimeStats> runs;
};

/// Restartable fleet state (fleet::run_fleet, DESIGN.md §5.13): the fixed
/// block partition and every fully-accumulated BlockSum. Blocks in flight at
/// the stop are simply recomputed on resume (per-device seeding makes the
/// redo bit-identical), so the done flags + sums are the complete state.
struct FleetCheckpoint {
  std::uint64_t sequence = 0;
  /// Hash of every result-affecting fleet parameter (fleet::fleet_param_hash,
  /// mirrored in progress.param_hash); resume refuses a mismatch.
  std::uint64_t param_hash = 0;
  fleet::FleetProgress progress;
};

/// Serialize into a complete single-section .clrdb image at the current
/// container version.
std::string serialize_explore_checkpoint(const ExploreCheckpoint& checkpoint);
std::string serialize_runner_checkpoint(const RunnerCheckpoint& checkpoint);
std::string serialize_fleet_checkpoint(const FleetCheckpoint& checkpoint);

/// Decode a validated view holding the matching checkpoint section. Throws
/// SnapshotError (BadValue on a kind mismatch or malformed field, Truncated
/// when the payload under-runs its declared counts).
ExploreCheckpoint decode_explore_checkpoint(const SnapshotView& view);
RunnerCheckpoint decode_runner_checkpoint(const SnapshotView& view);
FleetCheckpoint decode_fleet_checkpoint(const SnapshotView& view);

/// The checkpoint's sequence number (first preamble field). Throws BadValue
/// when the view holds no checkpoint section.
std::uint64_t checkpoint_sequence(const SnapshotView& view);

/// A/B checkpoint slot pair around a user-facing path: slot files are
/// `<base>.a` and `<base>.b`. See the file comment for the fallback
/// guarantee. Not thread-safe (one writer per run).
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string base_path) : base_(std::move(base_path)) {}

  const std::string& base_path() const { return base_; }
  std::string slot_a() const { return base_ + ".a"; }
  std::string slot_b() const { return base_ + ".b"; }

  /// Open both slots, tolerating missing/corrupt/torn files per slot, and
  /// return the validated snapshot with the highest sequence (nullopt when
  /// neither slot loads). Marks the *other* slot as the next write target,
  /// so the newest good checkpoint is never overwritten by the next save.
  /// When neither slot loads but one holds another format version, throws
  /// that slot's BadVersion error instead: a fresh start would overwrite it.
  std::optional<Snapshot> load_newest();

  /// The sequence the next saved checkpoint must carry: 1 on a fresh store,
  /// newest + 1 after a successful load_newest().
  std::uint64_t next_sequence() const { return next_sequence_; }

  /// Validate `bytes` as a checkpoint container carrying next_sequence(),
  /// write it durably into the current write slot, and flip slots.
  void save(std::string_view bytes);

  /// Open `<base>.a.tmp` for writing, as a save does, then remove it: throws
  /// the SnapshotError the first save() would ("cannot open … for writing").
  /// Sessions call it before any work, so an unwritable path loses none.
  void check_writable() const;

 private:
  std::string base_;
  int write_slot_ = 0;  ///< 0 = slot A, 1 = slot B
  std::uint64_t next_sequence_ = 1;
};

}  // namespace clr::io
