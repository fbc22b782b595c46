#include "io/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

namespace clr::io {

namespace {

/// Caps on every decoded element count: far above real runs (populations are
/// tens, grids are thousands) yet small enough that every size computation
/// stays far from overflow on hostile input.
constexpr std::uint64_t kMaxCkptCount = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxCkptJobs = std::uint64_t{1} << 24;
/// Fleet scale: up to 2^40 devices (far above the 10⁵–10⁶ target) while the
/// block count stays under kMaxCkptCount and every size product stays far
/// from overflow.
constexpr std::uint64_t kMaxFleetDevices = std::uint64_t{1} << 40;

using detail::append_scalar;
using detail::fail;
using detail::pad_to_8;

// --- Bounded decode cursor ---------------------------------------------------

/// Reads scalars/spans off a checkpoint payload; any read past the end
/// throws a typed Truncated error naming the field, so torn payloads (and
/// fuzzer mutations) fail loudly instead of reading out of bounds.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  /// `what` + `name` label the field in the error.
  template <typename T>
  T take(const char* what, const char* name = "") {
    if (remaining() < sizeof(T)) {
      fail(SnapshotError::Kind::Truncated,
           std::string("checkpoint payload ends inside ") + what + name);
    }
    T v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }

  std::uint64_t take_count(const char* what, std::uint64_t cap) {
    const auto n = take<std::uint64_t>(what);
    if (n > cap) {
      fail(SnapshotError::Kind::BadValue, std::string(what) + " count " + std::to_string(n) +
                                              " exceeds the format limit of " +
                                              std::to_string(cap));
    }
    return n;
  }

  const std::uint8_t* take_raw(std::uint64_t n, const char* what) {
    if (remaining() < n) {
      fail(SnapshotError::Kind::Truncated,
           std::string("checkpoint payload ends inside ") + what);
    }
    const std::uint8_t* at = p_;
    p_ += n;
    return at;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// At most 7 bytes of zero padding may follow a fully-decoded payload.
void expect_only_padding(const Cursor& cursor, const char* what) {
  if (cursor.remaining() >= 8) {
    fail(SnapshotError::Kind::BadValue, std::string(what) + " payload has " +
                                            std::to_string(cursor.remaining()) +
                                            " undecoded trailing bytes");
  }
}

// --- Shared sub-encodings ----------------------------------------------------

void encode_individual(std::string& out, const moea::Individual& ind) {
  append_scalar<std::uint64_t>(out, ind.genes.size());
  for (int g : ind.genes) append_scalar<std::int32_t>(out, g);
  append_scalar<std::uint64_t>(out, ind.eval.objectives.size());
  for (double o : ind.eval.objectives) append_scalar<double>(out, o);
  append_scalar<double>(out, ind.eval.violation);
  append_scalar<double>(out, ind.fitness);
  append_scalar<std::int32_t>(out, ind.rank);
  append_scalar<double>(out, ind.crowding);
}

moea::Individual decode_individual(Cursor& cursor) {
  moea::Individual ind;
  const auto ngenes = cursor.take_count("individual genes", kMaxCkptCount);
  ind.genes.reserve(static_cast<std::size_t>(ngenes));
  for (std::uint64_t i = 0; i < ngenes; ++i) {
    ind.genes.push_back(cursor.take<std::int32_t>("individual gene"));
  }
  const auto nobj = cursor.take_count("individual objectives", kMaxCkptCount);
  ind.eval.objectives.reserve(static_cast<std::size_t>(nobj));
  for (std::uint64_t i = 0; i < nobj; ++i) {
    ind.eval.objectives.push_back(cursor.take<double>("individual objective"));
  }
  ind.eval.violation = cursor.take<double>("individual violation");
  ind.fitness = cursor.take<double>("individual fitness");
  ind.rank = cursor.take<std::int32_t>("individual rank");
  ind.crowding = cursor.take<double>("individual crowding");
  return ind;
}

void encode_ga_state(std::string& out, const moea::GaState& ga) {
  append_scalar<std::uint64_t>(out, ga.generations_done);
  append_scalar<std::uint64_t>(out, ga.rng_state.size());
  out.append(ga.rng_state);
  append_scalar<std::uint64_t>(out, ga.population.size());
  for (const auto& ind : ga.population) encode_individual(out, ind);
  append_scalar<std::uint64_t>(out, ga.archive.size());
  for (const auto& ind : ga.archive) encode_individual(out, ind);
}

moea::GaState decode_ga_state(Cursor& cursor) {
  moea::GaState ga;
  ga.generations_done = cursor.take<std::uint64_t>("GA generation counter");
  const auto rng_len = cursor.take_count("GA rng state", kMaxCkptCount);
  const std::uint8_t* rng_bytes = cursor.take_raw(rng_len, "GA rng state");
  ga.rng_state.assign(reinterpret_cast<const char*>(rng_bytes),
                      static_cast<std::size_t>(rng_len));
  const auto npop = cursor.take_count("GA population", kMaxCkptCount);
  ga.population.reserve(static_cast<std::size_t>(npop));
  for (std::uint64_t i = 0; i < npop; ++i) ga.population.push_back(decode_individual(cursor));
  const auto narch = cursor.take_count("GA archive", kMaxCkptCount);
  ga.archive.reserve(static_cast<std::size_t>(narch));
  for (std::uint64_t i = 0; i < narch; ++i) ga.archive.push_back(decode_individual(cursor));
  return ga;
}

void encode_design_db(std::string& out, const dse::DesignDb& db) {
  append_scalar<std::uint64_t>(out, db.size());
  for (const auto& p : db.points()) {
    append_scalar<double>(out, p.energy);
    append_scalar<double>(out, p.makespan);
    append_scalar<double>(out, p.func_rel);
    out.push_back(p.extra ? '\1' : '\0');
    append_scalar<std::uint64_t>(out, p.config.tasks.size());
    for (const auto& a : p.config.tasks) {
      append_scalar<std::uint32_t>(out, a.pe);
      append_scalar<std::uint32_t>(out, a.impl_index);
      append_scalar<std::uint32_t>(out, a.clr_index);
      append_scalar<std::int32_t>(out, a.priority);
    }
  }
}

dse::DesignDb decode_design_db(Cursor& cursor) {
  dse::DesignDb db;
  const auto npoints = cursor.take_count("design points", kMaxCkptCount);
  db.reserve(static_cast<std::size_t>(npoints));
  for (std::uint64_t i = 0; i < npoints; ++i) {
    dse::DesignPoint p;
    p.energy = cursor.take<double>("point energy");
    p.makespan = cursor.take<double>("point makespan");
    p.func_rel = cursor.take<double>("point func_rel");
    p.extra = cursor.take<std::uint8_t>("point extra flag") != 0;
    const auto ntasks = cursor.take_count("point tasks", kMaxCkptCount);
    p.config.tasks.resize(static_cast<std::size_t>(ntasks));
    for (auto& a : p.config.tasks) {
      a.pe = cursor.take<std::uint32_t>("assignment pe");
      a.impl_index = cursor.take<std::uint32_t>("assignment impl");
      a.clr_index = cursor.take<std::uint32_t>("assignment clr");
      a.priority = cursor.take<std::int32_t>("assignment priority");
    }
    db.add(std::move(p));
  }
  return db;
}

/// RuntimeStats without the trace, in table order (runtime/stat_table.hpp):
/// 23 stats, 184 bytes per job.
void encode_stats(std::string& out, const rt::RuntimeStats& s) {
#define CLR_ENCODE(stat, fold, ...) append_scalar<rt::StatValue<rt::Fold::fold>>(out, s.stat);
  CLR_RUNTIME_STATS(CLR_ENCODE)
#undef CLR_ENCODE
}

rt::RuntimeStats decode_stats(Cursor& cursor) {
  rt::RuntimeStats s;
#define CLR_DECODE(stat, fold, ...) \
  s.stat = cursor.take<rt::StatValue<rt::Fold::fold>>("stats " #stat);
  CLR_RUNTIME_STATS(CLR_DECODE)
#undef CLR_DECODE
  return s;
}

/// fleet::BlockSum in FleetState order (fleet::for_each_block_stat): devices,
/// then the 11 counts, the 9 sums and the max, 176 bytes per block.
void encode_block_sum(std::string& out, const fleet::BlockSum& b) {
  append_scalar<std::uint64_t>(out, b.devices);
  fleet::for_each_block_stat([&](const char*, auto member) { append_scalar(out, b.*member); });
}

fleet::BlockSum decode_block_sum(Cursor& cursor) {
  fleet::BlockSum b;
  b.devices = cursor.take<std::uint64_t>("block devices");
  fleet::for_each_block_stat([&](const char* name, auto member) {
    b.*member = cursor.take<std::remove_reference_t<decltype(b.*member)>>("block ", name);
  });
  return b;
}

std::span<const std::uint8_t> checkpoint_payload_of_kind(const SnapshotView& view,
                                                         SnapshotSection kind,
                                                         const char* name) {
  if (!view.has_checkpoint()) {
    fail(SnapshotError::Kind::BadValue,
         std::string("file holds a design database, not a ") + name + " checkpoint");
  }
  if (view.checkpoint_section_kind() != static_cast<std::uint32_t>(kind)) {
    fail(SnapshotError::Kind::BadValue,
         std::string("expected a ") + name + " checkpoint (section kind " +
             std::to_string(static_cast<std::uint32_t>(kind)) + "), found kind " +
             std::to_string(view.checkpoint_section_kind()));
  }
  return view.checkpoint_payload();
}

}  // namespace

// ---------------------------------------------------------------------------
// Explore checkpoints
// ---------------------------------------------------------------------------

std::string serialize_explore_checkpoint(const ExploreCheckpoint& checkpoint) {
  if (checkpoint.ref.size() != checkpoint.scale.size()) {
    fail(SnapshotError::Kind::BadValue,
         "reference point spans " + std::to_string(checkpoint.ref.size()) +
             " objectives but the scales span " + std::to_string(checkpoint.scale.size()));
  }
  std::string payload;
  append_scalar<std::uint64_t>(payload, checkpoint.sequence);
  append_scalar<std::uint64_t>(payload, checkpoint.param_hash);
  append_scalar<std::uint32_t>(payload, checkpoint.stage);
  append_scalar<std::uint32_t>(payload, 0);  // reserved
  append_scalar<double>(payload, checkpoint.spec_max_makespan);
  append_scalar<double>(payload, checkpoint.spec_min_func_rel);
  append_scalar<std::uint64_t>(payload, checkpoint.ref.size());
  for (double r : checkpoint.ref) append_scalar<double>(payload, r);
  for (double s : checkpoint.scale) append_scalar<double>(payload, s);
  encode_ga_state(payload, checkpoint.ga);
  append_scalar<std::uint64_t>(payload, checkpoint.red_seed_pos);
  encode_design_db(payload, checkpoint.based);
  encode_design_db(payload, checkpoint.red);
  pad_to_8(payload);

  std::vector<detail::RawSection> sections;
  sections.push_back(
      {static_cast<std::uint32_t>(SnapshotSection::ExploreState), std::move(payload)});
  return detail::assemble_snapshot_container(std::move(sections));
}

ExploreCheckpoint decode_explore_checkpoint(const SnapshotView& view) {
  Cursor cursor(checkpoint_payload_of_kind(view, SnapshotSection::ExploreState, "explore"));
  ExploreCheckpoint c;
  c.sequence = cursor.take<std::uint64_t>("sequence");
  c.param_hash = cursor.take<std::uint64_t>("param hash");
  c.stage = cursor.take<std::uint32_t>("stage");
  if (c.stage > 1) {
    fail(SnapshotError::Kind::BadValue,
         "explore stage " + std::to_string(c.stage) + " (want 0=base or 1=red)");
  }
  const auto reserved = cursor.take<std::uint32_t>("reserved");
  if (reserved != 0) {
    fail(SnapshotError::Kind::BadValue,
         "explore checkpoint reserved field is " + std::to_string(reserved) + " (must be 0)");
  }
  c.spec_max_makespan = cursor.take<double>("spec max_makespan");
  c.spec_min_func_rel = cursor.take<double>("spec min_func_rel");
  const auto nref = cursor.take_count("reference point", kMaxCkptCount);
  c.ref.reserve(static_cast<std::size_t>(nref));
  for (std::uint64_t i = 0; i < nref; ++i) c.ref.push_back(cursor.take<double>("reference"));
  c.scale.reserve(static_cast<std::size_t>(nref));
  for (std::uint64_t i = 0; i < nref; ++i) c.scale.push_back(cursor.take<double>("scale"));
  c.ga = decode_ga_state(cursor);
  c.red_seed_pos = cursor.take<std::uint64_t>("red seed position");
  c.based = decode_design_db(cursor);
  c.red = decode_design_db(cursor);
  expect_only_padding(cursor, "explore checkpoint");
  return c;
}

// ---------------------------------------------------------------------------
// Runner checkpoints
// ---------------------------------------------------------------------------

std::string serialize_runner_checkpoint(const RunnerCheckpoint& checkpoint) {
  if (checkpoint.done.size() != checkpoint.runs.size()) {
    fail(SnapshotError::Kind::BadValue,
         "done flags span " + std::to_string(checkpoint.done.size()) + " jobs but " +
             std::to_string(checkpoint.runs.size()) + " run records were provided");
  }
  std::string payload;
  append_scalar<std::uint64_t>(payload, checkpoint.sequence);
  append_scalar<std::uint64_t>(payload, checkpoint.grid_hash);
  append_scalar<std::uint64_t>(payload, checkpoint.replications);
  append_scalar<std::uint64_t>(payload, checkpoint.done.size());
  for (std::uint8_t d : checkpoint.done) payload.push_back(d != 0 ? '\1' : '\0');
  for (const auto& s : checkpoint.runs) encode_stats(payload, s);
  pad_to_8(payload);

  std::vector<detail::RawSection> sections;
  sections.push_back(
      {static_cast<std::uint32_t>(SnapshotSection::RunnerState), std::move(payload)});
  return detail::assemble_snapshot_container(std::move(sections));
}

RunnerCheckpoint decode_runner_checkpoint(const SnapshotView& view) {
  Cursor cursor(checkpoint_payload_of_kind(view, SnapshotSection::RunnerState, "runner"));
  RunnerCheckpoint c;
  c.sequence = cursor.take<std::uint64_t>("sequence");
  c.grid_hash = cursor.take<std::uint64_t>("grid hash");
  c.replications = cursor.take<std::uint64_t>("replication count");
  const auto jobs = cursor.take_count("job flags", kMaxCkptJobs);
  const std::uint8_t* flags = cursor.take_raw(jobs, "job flags");
  c.done.reserve(static_cast<std::size_t>(jobs));
  for (std::uint64_t i = 0; i < jobs; ++i) {
    if (flags[i] > 1) {
      fail(SnapshotError::Kind::BadValue, "job flag " + std::to_string(i) + " is " +
                                              std::to_string(flags[i]) + " (want 0 or 1)");
    }
    c.done.push_back(flags[i]);
  }
  c.runs.reserve(static_cast<std::size_t>(jobs));
  for (std::uint64_t i = 0; i < jobs; ++i) c.runs.push_back(decode_stats(cursor));
  expect_only_padding(cursor, "runner checkpoint");
  return c;
}

// ---------------------------------------------------------------------------
// Fleet checkpoints
// ---------------------------------------------------------------------------

std::string serialize_fleet_checkpoint(const FleetCheckpoint& checkpoint) {
  const fleet::FleetProgress& p = checkpoint.progress;
  if (p.block_size == 0) {
    fail(SnapshotError::Kind::BadValue, "fleet checkpoint block_size must be >= 1");
  }
  const std::uint64_t expected_blocks =
      p.devices == 0 ? 0 : (p.devices + p.block_size - 1) / p.block_size;
  if (p.done.size() != expected_blocks || p.blocks.size() != expected_blocks) {
    fail(SnapshotError::Kind::BadValue,
         "fleet checkpoint carries " + std::to_string(p.done.size()) + " flags / " +
             std::to_string(p.blocks.size()) + " block sums but " +
             std::to_string(p.devices) + " devices at block size " +
             std::to_string(p.block_size) + " partition into " +
             std::to_string(expected_blocks) + " blocks");
  }
  std::string payload;
  append_scalar<std::uint64_t>(payload, checkpoint.sequence);
  append_scalar<std::uint64_t>(payload, checkpoint.param_hash);
  append_scalar<std::uint64_t>(payload, p.devices);
  append_scalar<std::uint64_t>(payload, p.block_size);
  append_scalar<std::uint64_t>(payload, p.done.size());
  for (std::uint8_t d : p.done) payload.push_back(d != 0 ? '\1' : '\0');
  for (const auto& b : p.blocks) encode_block_sum(payload, b);
  pad_to_8(payload);

  std::vector<detail::RawSection> sections;
  sections.push_back(
      {static_cast<std::uint32_t>(SnapshotSection::FleetState), std::move(payload)});
  return detail::assemble_snapshot_container(std::move(sections));
}

FleetCheckpoint decode_fleet_checkpoint(const SnapshotView& view) {
  Cursor cursor(checkpoint_payload_of_kind(view, SnapshotSection::FleetState, "fleet"));
  FleetCheckpoint c;
  c.sequence = cursor.take<std::uint64_t>("sequence");
  c.param_hash = cursor.take<std::uint64_t>("param hash");
  c.progress.param_hash = c.param_hash;
  c.progress.devices = cursor.take_count("fleet devices", kMaxFleetDevices);
  c.progress.block_size = cursor.take<std::uint64_t>("fleet block size");
  if (c.progress.block_size == 0) {
    fail(SnapshotError::Kind::BadValue, "fleet checkpoint block size is 0 (must be >= 1)");
  }
  const std::uint64_t expected_blocks =
      c.progress.devices == 0
          ? 0
          : (c.progress.devices + c.progress.block_size - 1) / c.progress.block_size;
  const auto blocks = cursor.take_count("fleet blocks", kMaxCkptCount);
  if (blocks != expected_blocks) {
    fail(SnapshotError::Kind::BadValue,
         "fleet checkpoint declares " + std::to_string(blocks) + " blocks but " +
             std::to_string(c.progress.devices) + " devices at block size " +
             std::to_string(c.progress.block_size) + " partition into " +
             std::to_string(expected_blocks));
  }
  const std::uint8_t* flags = cursor.take_raw(blocks, "fleet block flags");
  c.progress.done.reserve(static_cast<std::size_t>(blocks));
  for (std::uint64_t i = 0; i < blocks; ++i) {
    if (flags[i] > 1) {
      fail(SnapshotError::Kind::BadValue, "fleet block flag " + std::to_string(i) + " is " +
                                              std::to_string(flags[i]) + " (want 0 or 1)");
    }
    c.progress.done.push_back(flags[i]);
  }
  c.progress.blocks.reserve(static_cast<std::size_t>(blocks));
  for (std::uint64_t i = 0; i < blocks; ++i) c.progress.blocks.push_back(decode_block_sum(cursor));
  expect_only_padding(cursor, "fleet checkpoint");
  return c;
}

// ---------------------------------------------------------------------------
// Common helpers + the A/B store
// ---------------------------------------------------------------------------

std::uint64_t checkpoint_sequence(const SnapshotView& view) {
  if (!view.has_checkpoint()) {
    fail(SnapshotError::Kind::BadValue, "file holds a design database, not a checkpoint");
  }
  // attach() guarantees the 16-byte preamble; the sequence is its first u64.
  std::uint64_t seq = 0;
  std::memcpy(&seq, view.checkpoint_payload().data(), sizeof seq);
  return seq;
}

std::optional<Snapshot> CheckpointStore::load_newest() {
  std::optional<Snapshot> best;
  std::uint64_t best_sequence = 0;
  int best_slot = -1;
  std::optional<SnapshotError> refused;
  for (int slot = 0; slot < 2; ++slot) {
    const std::string path = slot == 0 ? slot_a() : slot_b();
    try {
      Snapshot snapshot = Snapshot::open(path);
      const std::uint64_t sequence = checkpoint_sequence(snapshot.view());
      if (best_slot < 0 || sequence > best_sequence) {
        best_sequence = sequence;
        best_slot = slot;
        best = std::move(snapshot);
      }
    } catch (const SnapshotError& e) {
      // Missing, torn or corrupted slot: the sibling is the fallback. A slot
      // of another format version is intact, so it is not overwritten by a
      // fresh start.
      if (e.kind() == SnapshotError::Kind::BadVersion && !refused) refused = e;
    }
  }
  if (best_slot < 0) {
    if (refused) throw *refused;
    write_slot_ = 0;
    next_sequence_ = 1;
    return std::nullopt;
  }
  write_slot_ = best_slot ^ 1;
  next_sequence_ = best_sequence + 1;
  return best;
}

void CheckpointStore::save(std::string_view bytes) {
  // Validate BEFORE touching disk: the A/B fallback only works if every
  // accepted save is a loadable checkpoint carrying the expected sequence.
  const Snapshot snapshot = Snapshot::from_bytes(std::string(bytes));
  const std::uint64_t sequence = checkpoint_sequence(snapshot.view());
  if (sequence != next_sequence_) {
    fail(SnapshotError::Kind::BadValue,
         "checkpoint carries sequence " + std::to_string(sequence) + " but the store expects " +
             std::to_string(next_sequence_));
  }
  write_file_durable(write_slot_ == 0 ? slot_a() : slot_b(), bytes);
  write_slot_ ^= 1;
  ++next_sequence_;
}

void CheckpointStore::check_writable() const {
  const std::string tmp = slot_a() + ".tmp";
  if (!std::ofstream(tmp, std::ios::binary | std::ios::trunc)) {
    fail(SnapshotError::Kind::Io, "cannot open " + tmp + " for writing");
  }
  std::remove(tmp.c_str());
}

}  // namespace clr::io
