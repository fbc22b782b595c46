#include "fleet/fleet.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "io/checkpoint.hpp"
#include "runtime/qos_process.hpp"
#include "runtime/simulator.hpp"

namespace clr::fleet {

namespace {

DeviceResult to_result(std::uint64_t id, const rt::RuntimeStats& s) {
  DeviceResult r;
  r.device = id;
#define CLR_COPY(stat, fold, device, ...) CLR_STAT_IF(device)(r.device = s.stat;)
  CLR_RUNTIME_STATS(CLR_COPY)
#undef CLR_COPY
  return r;
}

std::uint64_t block_device_count(const FleetConfig& config, std::uint64_t block,
                                 std::uint64_t num_blocks) {
  if (block + 1 < num_blocks) return config.block_size;
  return config.devices - block * config.block_size;  // last block may be short
}

void validate_config(const FleetConfig& config) {
  if (config.block_size == 0) {
    throw std::invalid_argument("fleet: block_size must be >= 1");
  }
  if (config.params.sim.trace_events != 0) {
    throw std::invalid_argument(
        "fleet: per-event traces are not supported at fleet scale (sim.trace_events must be 0)");
  }
}

}  // namespace

std::uint64_t fleet_param_hash(const FleetConfig& config) {
  std::uint64_t h = util::kFnv1aBasis;
  util::fnv1a_value<std::uint64_t>(h, config.devices);
  util::fnv1a_value<std::uint64_t>(h, config.seed);
  util::fnv1a_value<std::uint64_t>(h, config.block_size);
  const exp::RuntimeEvalParams& p = config.params;
  util::fnv1a_value<std::uint32_t>(h, static_cast<std::uint32_t>(p.kind));
  util::fnv1a_value<double>(h, p.p_rc);
  util::fnv1a_value<double>(h, p.aura.gamma);
  util::fnv1a_value<double>(h, p.aura.alpha);
  util::fnv1a_value<double>(h, p.aura.guard);
  util::fnv1a_value<double>(h, p.aura.initial_value);
  util::fnv1a_value<double>(h, p.pretrain_cycles);
  util::fnv1a_value<std::uint64_t>(h, p.pretrain_sweeps);
  util::fnv1a_value<std::uint8_t>(h, p.pretrain ? 1 : 0);
  util::fnv1a_value<double>(h, p.sim.total_cycles);
  util::fnv1a_value<double>(h, p.sim.episode_cycles);
  util::fnv1a_value<double>(h, p.qos.makespan_mean_frac);
  util::fnv1a_value<double>(h, p.qos.makespan_sd_frac);
  util::fnv1a_value<double>(h, p.qos.func_rel_mean_frac);
  util::fnv1a_value<double>(h, p.qos.func_rel_sd_frac);
  util::fnv1a_value<double>(h, p.qos.rho);
  util::fnv1a_value<double>(h, p.qos.ar1_phi);
  util::fnv1a_value<double>(h, p.qos.mean_event_gap);
  util::fnv1a_value<double>(h, p.faults.transient_rate);
  util::fnv1a_value<double>(h, p.faults.pe_mtbf);
  util::fnv1a_value<double>(h, p.faults.recovery_latency);
  util::fnv1a_value<double>(h, p.faults.reexec_energy_factor);
  util::fnv1a_value<double>(h, p.faults.qos_tolerance);
  util::fnv1a_value<double>(h, p.faults.fallback_coverage);
  util::fnv1a_value<std::uint64_t>(h, p.fault_profiles.size());
  for (const auto& profile : p.fault_profiles) {
    util::fnv1a_value<double>(h, profile.ser_scale);
    util::fnv1a_value<double>(h, profile.weibull_shape);
  }
  util::fnv1a_value<double>(h, config.ranges.energy_min);
  util::fnv1a_value<double>(h, config.ranges.energy_max);
  util::fnv1a_value<double>(h, config.ranges.makespan_min);
  util::fnv1a_value<double>(h, config.ranges.makespan_max);
  util::fnv1a_value<double>(h, config.ranges.func_rel_min);
  util::fnv1a_value<double>(h, config.ranges.func_rel_max);
  // New-policy knobs enter the hash only when in play, keeping every
  // pre-existing fleet's hash (and its resumable checkpoints) stable.
  if (p.kind == exp::PolicyKind::Mdp) {
    util::fnv1a_value<std::uint64_t>(h, p.mdp.makespan_bins);
    util::fnv1a_value<std::uint64_t>(h, p.mdp.func_rel_bins);
    util::fnv1a_value<double>(h, p.mdp.gamma);
    util::fnv1a_value<double>(h, p.mdp.tolerance);
    util::fnv1a_value<std::uint64_t>(h, p.mdp.max_sweeps);
  }
  if (p.prefetch) {
    util::fnv1a_value<std::uint8_t>(h, 1);
    util::fnv1a_value<std::uint64_t>(h, p.prefetch_params.min_observations);
  }
  // shards and jobs deliberately excluded: partitioning knobs never affect
  // results (the determinism rule), so a checkpoint taken at any
  // --shards/--jobs resumes at any other.
  return h;
}

std::uint64_t fleet_num_blocks(const FleetConfig& config) {
  if (config.devices == 0) return 0;
  return (config.devices + config.block_size - 1) / config.block_size;
}

std::pair<std::uint64_t, std::uint64_t> shard_block_range(std::uint64_t num_blocks,
                                                          std::size_t shards, std::size_t s) {
  if (shards == 0 || s >= shards) {
    throw std::invalid_argument("fleet: shard index " + std::to_string(s) + " out of " +
                                std::to_string(shards));
  }
  const std::uint64_t n = static_cast<std::uint64_t>(shards);
  const std::uint64_t base = num_blocks / n;
  const std::uint64_t extra = num_blocks % n;
  const std::uint64_t idx = static_cast<std::uint64_t>(s);
  const std::uint64_t first = idx * base + std::min(idx, extra);
  const std::uint64_t count = base + (idx < extra ? 1 : 0);
  return {first, count};
}

DeviceResult simulate_device(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                             const rt::QosProcess& qos, const rt::RuntimeSimulator& sim,
                             const exp::RuntimeEvalParams& params,
                             const rel::ClrSpace* clr_space, std::uint64_t device,
                             std::uint64_t fleet_seed, const rt::MdpTable* mdp_table,
                             rt::DecisionTable* decision_table) {
  return to_result(device,
                   exp::evaluate_policy_on(db, drc, qos, sim, params,
                                           util::substream_seed(fleet_seed, device), clr_space,
                                           mdp_table, decision_table));
}

FleetSummary summarize(const FleetProgress& progress) {
  FleetSummary s;
  for (std::size_t b = 0; b < progress.blocks.size(); ++b) {
    if (b < progress.done.size() && progress.done[b] != 0) s.totals.merge(progress.blocks[b]);
  }
  const double n = static_cast<double>(s.totals.devices);
  if (s.totals.devices > 0) {
#define CLR_MEAN(stat, fold, device, block, mean, ...) \
  CLR_STAT_IF(mean)(s.mean = s.totals.block / n;)
    CLR_RUNTIME_STATS(CLR_MEAN)
#undef CLR_MEAN
  }
  return s;
}

std::vector<ShardSummary> summarize_shards(const FleetProgress& progress, std::size_t shards) {
  std::vector<ShardSummary> out;
  if (shards == 0) return out;
  const std::uint64_t num_blocks = progress.blocks.size();
  out.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const auto [first, count] = shard_block_range(num_blocks, shards, s);
    ShardSummary shard;
    shard.shard = s;
    shard.first_block = first;
    shard.num_blocks = count;
    shard.first_device = first * progress.block_size;
    for (std::uint64_t b = first; b < first + count; ++b) {
      const std::uint64_t block_end =
          std::min((b + 1) * progress.block_size, progress.devices);
      shard.num_devices += block_end - b * progress.block_size;
      if (progress.done[static_cast<std::size_t>(b)] != 0) {
        shard.totals.merge(progress.blocks[static_cast<std::size_t>(b)]);
      }
    }
    out.push_back(shard);
  }
  return out;
}

FleetResult run_fleet(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                      const rel::ClrSpace* clr_space, const FleetConfig& config,
                      const FleetControl& control) {
  validate_config(config);
  const std::uint64_t num_blocks = fleet_num_blocks(config);
  const std::size_t jobs = util::resolve_threads(config.jobs);
  const std::size_t shards = config.shards != 0 ? config.shards : jobs;
  const std::uint64_t param_hash = fleet_param_hash(config);

  FleetResult result;
  result.progress.param_hash = param_hash;
  result.progress.devices = config.devices;
  result.progress.block_size = config.block_size;
  result.progress.done.assign(static_cast<std::size_t>(num_blocks), 0);
  result.progress.blocks.assign(static_cast<std::size_t>(num_blocks), BlockSum{});

  if (control.resume != nullptr) {
    const FleetProgress& r = *control.resume;
    if (r.param_hash != param_hash || r.devices != config.devices ||
        r.block_size != config.block_size || r.done.size() != num_blocks ||
        r.blocks.size() != num_blocks) {
      throw std::invalid_argument(
          "fleet: resume progress was recorded for a different fleet (param/shape mismatch)");
    }
    result.progress.done = r.done;
    result.progress.blocks = r.blocks;
  }

  const auto start = std::chrono::steady_clock::now();

  // One offline MDP plan for the whole fleet: the table is immutable and
  // read-shared across every worker (per-device rebuilds would be
  // bit-identical but waste the solve num_devices times).
  std::optional<rt::MdpTable> shared_mdp;
  if (config.params.kind == exp::PolicyKind::Mdp && config.devices > 0) {
    shared_mdp = rt::build_mdp_table(db, drc, config.ranges, config.params.p_rc,
                                     config.params.qos, config.params.faults,
                                     config.params.mdp);
  }
  const rt::MdpTable* shared_mdp_ptr = shared_mdp ? &*shared_mdp : nullptr;

  // One uRA/AuRA decision table per worker, built here so that a database it
  // rejects fails the call before any worker starts. Every entry is a pure
  // function of its key, so which worker filled it never shows in a result;
  // no two threads share a table.
  std::vector<std::optional<rt::DecisionTable>> tables(jobs);
  if ((config.params.kind == exp::PolicyKind::Ura ||
       config.params.kind == exp::PolicyKind::Aura) &&
      config.devices > 0) {
    for (auto& table : tables) {
      table.emplace(db, drc, config.params.p_rc, config.params.aura.guard);
    }
  }

  // Each worker sums a whole block in device order into a local BlockSum and
  // publishes it under `publish`, the one lock over the shared result; the
  // callbacks run under it too, so they never overlap.
  std::mutex publish;
  std::atomic<bool> failed{false};
  std::uint64_t devices_this_run = 0;
  std::uint64_t since_checkpoint = 0;
  const auto work = [&](std::size_t w) {
    // Declared outside the try: when a callback throws, the lock is still held
    // while the handler sets `failed`, so every worker that publishes after
    // the throw sees the flag before its next block.
    std::unique_lock<std::mutex> lock(publish, std::defer_lock);
    try {
      // Shared per-worker evaluation plant: QosProcess and RuntimeSimulator
      // are const/stateless across run() calls (the AR(1) requirement state
      // lives inside each run), so reusing them across devices is
      // bit-identical to constructing them per device — pinned by the
      // simulator-reuse test.
      const rt::QosProcess qos(config.ranges, config.params.qos);
      const rt::RuntimeSimulator sim(config.params.sim);
      rt::DecisionTable* table = tables[w] ? &*tables[w] : nullptr;
      for (std::size_t s = w; s < shards; s += jobs) {
        const auto [first, count] = shard_block_range(num_blocks, shards, s);
        for (std::uint64_t b = first; b < first + count; ++b) {
          // Only this worker writes done[b], so reading it unlocked is safe.
          if (result.progress.done[static_cast<std::size_t>(b)] != 0) continue;  // resumed
          // A stop or a failure ends the worker at a block boundary: a started
          // block always finishes, so blocks stay all-or-nothing units.
          if (control.stop.stop_requested() || failed.load(std::memory_order_relaxed)) return;
          const std::uint64_t block_first = b * config.block_size;
          const std::uint64_t block_count = block_device_count(config, b, num_blocks);
          BlockSum sum;
          for (std::uint64_t d = block_first; d < block_first + block_count; ++d) {
            sum.add(simulate_device(db, drc, qos, sim, config.params, clr_space, d, config.seed,
                                    shared_mdp_ptr, table));
          }
          lock.lock();
          result.progress.blocks[static_cast<std::size_t>(b)] = sum;
          result.progress.done[static_cast<std::size_t>(b)] = 1;
          result.blocks_done_this_run += 1;
          devices_this_run += block_count;
          since_checkpoint += 1;
          if (control.on_block) control.on_block(result.blocks_done_this_run, num_blocks);
          if (control.checkpoint_every != 0 && control.on_checkpoint &&
              since_checkpoint >= control.checkpoint_every) {
            control.on_checkpoint(result.progress);
            since_checkpoint = 0;
          }
          lock.unlock();
        }
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  };
  // The caller is one of the `jobs` threads, so jobs = 1 starts none; the
  // first exception of any worker is rethrown here.
  util::ThreadPool(jobs).parallel_for(jobs, work);
  for (const auto& table : tables) {
    if (!table) continue;
    result.decision_table.merge(table->counters());
    result.decision_table_bytes += table->bytes();
  }

  if (control.on_checkpoint && since_checkpoint > 0) {
    control.on_checkpoint(result.progress);
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  result.summary = summarize(result.progress);
  result.shards = summarize_shards(result.progress, shards);
  result.devices_done = result.summary.totals.devices;
  result.complete = result.progress.blocks_done() == num_blocks;
  if (result.wall_seconds > 0.0) {
    result.devices_per_second = static_cast<double>(devices_this_run) / result.wall_seconds;
  }
  return result;
}

FleetSessionOutcome run_fleet_session(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                                      const rel::ClrSpace* clr_space, const FleetConfig& config,
                                      const exp::SessionControl& control) {
  if (control.checkpoint_every == 0) {
    throw std::invalid_argument("fleet session: checkpoint_every must be >= 1");
  }
  if (control.resume && control.checkpoint_path.empty()) {
    throw std::invalid_argument("fleet session: resume requires a checkpoint path");
  }
  const std::uint64_t param_hash = fleet_param_hash(config);

  // The session's own stop source merges every stop signal (the
  // exp::run_*_session discipline): the external token is forwarded at each
  // block boundary, the step budget (in blocks) arms it directly.
  util::StopSource session_stop;
  util::RunBudget budget(session_stop, control.step_budget);

  std::optional<io::CheckpointStore> store;
  if (!control.checkpoint_path.empty()) {
    store.emplace(control.checkpoint_path);
    store->check_writable();
  }

  FleetSessionOutcome out;
  std::optional<FleetProgress> restored;
  if (control.resume && store) {
    if (auto snapshot = store->load_newest()) {
      io::FleetCheckpoint c = io::decode_fleet_checkpoint(snapshot->view());
      if (c.param_hash != param_hash) {
        throw std::runtime_error(
            "fleet resume: the checkpoint was taken under different parameters (hash " +
            std::to_string(c.param_hash) + ", this run computes " + std::to_string(param_hash) +
            ")");
      }
      restored = std::move(c.progress);
      out.resumed = true;
    }
    // No loadable checkpoint: start fresh, so the first run and every
    // resumed run share one command line.
  }

  FleetControl fleet_control;
  fleet_control.stop = session_stop.token();
  fleet_control.resume = restored ? &*restored : nullptr;
  fleet_control.on_block = [&](std::uint64_t, std::uint64_t) {
    budget.step();
    if (control.stop.stop_requested()) session_stop.request_stop(control.stop.reason());
  };
  if (store) {
    fleet_control.checkpoint_every = control.checkpoint_every;
    fleet_control.on_checkpoint = [&](const FleetProgress& progress) {
      io::FleetCheckpoint c;
      c.sequence = store->next_sequence();
      c.param_hash = param_hash;
      c.progress = progress;
      store->save(io::serialize_fleet_checkpoint(c));
      out.checkpoints_written += 1;
    };
  }

  out.result = run_fleet(db, drc, clr_space, config, fleet_control);
  out.stop_reason = session_stop.reason();
  return out;
}

}  // namespace clr::fleet
