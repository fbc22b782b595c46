// Fleet workloads: fleet::run_fleet at jobs = 1 over one `.clrdb` design
// database written by another process (`clrbench gen`), so neither the DSE
// that produced it nor its durable write lands in this process's time or
// peak RSS.
//
//   fleet_mdp_faults  MDP policy + ICAP prefetch + transient and permanent
//                     faults over the 40-task app's database. Its timed path
//                     holds the offline MDP solve run_fleet performs and the
//                     per-event fault / ICAP / table-lookup work; the device
//                     count puts the solve near a third of wall_s so a gain in
//                     either shows.
//   fleet_aura        pre-trained AuRA over the 90-task app's database, no
//                     faults, no prefetch. Pre-training (value updates at every
//                     episode end) and uRA-style scans over every point
//                     dominate; it has no MDP solve, no faults and no ICAP, so
//                     a gain aimed at those must leave it unchanged.
//
// The database is the default-seed design of its app; the workload seed is
// the fleet seed, i.e. every device's QoS, fault and pre-training streams.
// Both the MDP solve (~points²) and every decision (a scan over the points)
// scale with the stored-point count, which a design seed moves by up to 60%,
// so a seed-dependent database would make wall_s track the seed, not the code.
//
// Set-up is io::load_snapshot (open, validate, materialize with the
// DrcMatrix), the app rebuild and the fault profiles. The timed phase is one
// run_fleet call.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/parallel.hpp"
#include "experiments/app.hpp"
#include "fleet/fleet.hpp"
#include "io/snapshot.hpp"
#include "runtime/drc_matrix.hpp"
#include "workloads.hpp"

namespace clr::bench {

namespace {

struct FleetSpec {
  const char* name;
  std::size_t tasks;
  exp::PolicyKind kind;
  bool prefetch;
  double fault_rate;
  double pe_mtbf;
  std::uint64_t devices;
  /// Aggregation grain: small enough that re-simulating the first and last
  /// block for the output check stays a minor share of a run.
  std::uint64_t block_size;
};

constexpr FleetSpec kFleets[] = {
    {"fleet_mdp_faults", kSmallTasks, exp::PolicyKind::Mdp, true, 1e-4, 5e4, 12800, 256},
    {"fleet_aura", kLargeTasks, exp::PolicyKind::Aura, false, 0.0, 0.0, 768, 64},
};

/// Devices replayed through the timing wrapper in the traced run.
constexpr std::uint64_t kReplayDevices = 32;

const FleetSpec& fleet_spec(const std::string& name) {
  for (const FleetSpec& f : kFleets) {
    if (name == f.name) return f;
  }
  throw std::invalid_argument("unknown fleet workload '" + name + "'");
}

static_assert(sizeof(fleet::BlockSum) == 22 * 8, "BlockSum must have no padding");
static_assert(sizeof(fleet::DeviceResult) == 22 * 8, "DeviceResult must have no padding");

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

struct FleetSetup {
  io::LoadedSnapshot loaded;
  std::unique_ptr<exp::AppInstance> app;
  fleet::FleetConfig config;

  const dse::DesignDb& db() const { return loaded.db; }
  const rt::DrcMatrix& drc() const { return *loaded.drc; }
};

FleetSetup set_up(const FleetSpec& f, const std::string& input, std::uint64_t seed) {
  FleetSetup s;
  {
    Span span("io.snapshot_open");
    s.loaded = io::load_snapshot(input);
  }
  if (!s.loaded.drc) throw std::runtime_error("fleet input carries no DrcMatrix");
  {
    Span span("experiments.make_app");
    s.app = exp::make_synthetic_app_with_space(f.tasks, kAppSeed, s.loaded.space);
  }
  fleet::FleetConfig& c = s.config;
  c.devices = f.devices;
  c.shards = 1;
  c.jobs = 1;
  c.block_size = f.block_size;
  c.seed = seed;
  exp::RuntimeEvalParams& p = c.params;
  p.kind = f.kind;
  p.prefetch = f.prefetch;
  p.sim.total_cycles = 2e4;  // clrtool fleet's default horizon
  p.faults.transient_rate = f.fault_rate;
  p.faults.pe_mtbf = f.pe_mtbf;
  if (p.faults.enabled()) {
    Span span("faults.profiles");
    p.fault_profiles = flt::profiles_from_platform(s.app->platform());
  }
  // QoS box from the database's own ranges, widened as clrtool fleet does.
  const dse::MetricRanges r = s.db().ranges();
  c.ranges = r;
  c.ranges.makespan_max = r.makespan_max + 0.25 * (r.makespan_max - r.makespan_min);
  c.ranges.func_rel_min = r.func_rel_min - 0.25 * (r.func_rel_max - r.func_rel_min);
  return s;
}

fleet::DeviceResult to_result(std::uint64_t device, const rt::RuntimeStats& s) {
  fleet::DeviceResult r;
  r.device = device;
  r.events = s.num_events;
  r.reconfigs = s.num_reconfigs;
  r.infeasible_events = s.num_infeasible_events;
  r.transient_faults = s.num_transient_faults;
  r.recovered_transients = s.num_recovered_transients;
  r.unrecovered_failures = s.num_unrecovered_failures;
  r.permanent_faults = s.num_permanent_faults;
  r.evacuations = s.num_evacuations;
  r.safe_mode_entries = s.num_safe_mode_entries;
  r.prefetch_hits = s.prefetch_hits;
  r.prefetch_misses = s.prefetch_misses;
  r.avg_energy = s.avg_energy;
  r.total_reconfig_cost = s.total_reconfig_cost;
  r.qos_violation_time = s.qos_violation_time;
  r.downtime = s.downtime;
  r.availability = s.availability;
  r.mttr = s.mttr;
  r.max_drc = s.max_drc;
  r.reconfig_stall_time = s.reconfig_stall_time;
  r.prefetch_hidden_time = s.prefetch_hidden_time;
  r.service_availability = s.service_availability;
  return r;
}

/// The fleet-shared offline plan, built the way run_fleet builds it.
std::optional<rt::MdpTable> solve_mdp(const FleetSetup& s) {
  const fleet::FleetConfig& c = s.config;
  if (c.params.kind != exp::PolicyKind::Mdp) return std::nullopt;
  return rt::build_mdp_table(s.db(), s.drc(), c.ranges, c.params.p_rc, c.params.qos,
                             c.params.faults, c.params.mdp);
}

/// Re-simulate block `b` device by device through fleet::simulate_device.
fleet::BlockSum simulate_block(const FleetSetup& s, const rt::MdpTable* table, std::uint64_t b) {
  const fleet::FleetConfig& c = s.config;
  const rt::QosProcess qos(c.ranges, c.params.qos);
  const rt::RuntimeSimulator sim(c.params.sim);
  fleet::BlockSum sum;
  const std::uint64_t end = std::min((b + 1) * c.block_size, c.devices);
  for (std::uint64_t d = b * c.block_size; d < end; ++d) {
    sum.add(fleet::simulate_device(s.db(), s.drc(), qos, sim, c.params, &s.app->clr_space(), d,
                                   c.seed, table));
  }
  return sum;
}

/// Output checks on one run_fleet result; returns the devices that failed.
std::uint64_t check_result(const FleetSetup& s, const fleet::FleetResult& r,
                           const rt::MdpTable* table, Report& report) {
  const fleet::FleetConfig& c = s.config;
  if (!r.complete || r.devices_done != c.devices) {
    report.fail("fleet: " + std::to_string(r.devices_done) + " of " +
                std::to_string(c.devices) + " devices done");
    return c.devices;
  }
  const fleet::FleetSummary& m = r.summary;
  for (double v : {m.mean_energy, m.mean_reconfig_cost, m.mean_violation_time, m.mean_downtime,
                   m.mean_availability, m.mean_mttr, m.mean_stall_time, m.mean_hidden_time,
                   m.mean_service_availability}) {
    if (!std::isfinite(v)) {
      report.fail("fleet: non-finite summary mean");
      return c.devices;
    }
  }
  std::uint64_t failed = 0;
  const std::uint64_t last = r.progress.blocks.size() - 1;
  for (std::uint64_t b : {std::uint64_t{0}, last}) {
    if (!same_bytes(simulate_block(s, table, b), r.progress.blocks[b])) {
      report.fail("fleet: block " + std::to_string(b) + " differs from simulate_device");
      failed += r.progress.blocks[b].devices;
    }
    if (last == 0) break;
  }
  return failed;
}

std::string fleet_digest(const fleet::FleetResult& r) {
  Digest d;
  d.value(r.devices_done);
  for (const fleet::BlockSum& b : r.progress.blocks) d.value(b);
  return d.hex();
}

/// One timed run_fleet call. A call that throws is still timed (ok = false)
/// and ends the measurement; its devices count as failed.
struct Rep {
  double wall_s = 0.0;
  bool ok = true;
  fleet::FleetResult result;
};

/// Forwarding wrapper that times the inner policy's decisions (select,
/// select_initial, peek) and episode ends. Every call forwards unchanged, so
/// a replay through it must reproduce fleet::simulate_device bit for bit.
class TimingPolicy final : public rt::AdaptationPolicy {
 public:
  struct Tally {
    std::uint64_t calls = 0;
    double seconds = 0.0;
  };

  TimingPolicy(rt::AdaptationPolicy& inner, Tally& decisions, Tally& episodes)
      : inner_(&inner), decisions_(&decisions), episodes_(&episodes) {}

  rt::Decision select(std::size_t current, const dse::QosSpec& spec) override {
    return timed([&] { return inner_->select(current, spec); });
  }
  rt::Decision select_initial(std::size_t hint, const dse::QosSpec& spec) override {
    return timed([&] { return inner_->select_initial(hint, spec); });
  }
  rt::Decision peek(std::size_t current, const dse::QosSpec& spec) override {
    return timed([&] { return inner_->peek(current, spec); });
  }
  void end_episode() override {
    const Clock::time_point start = Clock::now();
    inner_->end_episode();
    episodes_->seconds += seconds_since(start);
    episodes_->calls += 1;
  }
  void reset() override { inner_->reset(); }
  void set_health(const flt::PlatformHealth* health) override {
    AdaptationPolicy::set_health(health);
    inner_->set_health(health);
  }

 private:
  template <typename F>
  rt::Decision timed(F&& call) {
    const Clock::time_point start = Clock::now();
    const rt::Decision d = call();
    decisions_->seconds += seconds_since(start);
    decisions_->calls += 1;
    return d;
  }

  rt::AdaptationPolicy* inner_;
  Tally* decisions_;
  Tally* episodes_;
};

struct ReplayTallies {
  TimingPolicy::Tally decisions;
  TimingPolicy::Tally episodes;  ///< pre-training episode ends (value updates)
};

/// One device's random streams and fault scenario, drawn in the order
/// fleet::simulate_device draws them: pre-training, evaluation, faults.
struct DeviceStreams {
  DeviceStreams(const FleetSetup& s, std::uint64_t device)
      : mix(fleet::device_seed(s.config.seed, device)), pretrain(mix.next()), eval(mix.next()) {
    const exp::RuntimeEvalParams& p = s.config.params;
    faults = p.faults.enabled();
    if (faults) {
      scenario.params = p.faults;
      scenario.profiles = p.fault_profiles;
      scenario.seed = mix.next();
      scenario.clr_space = &s.app->clr_space();
    }
  }
  const flt::FaultScenario* active() const { return faults ? &scenario : nullptr; }

  util::SplitMix64 mix;
  util::Rng pretrain;
  util::Rng eval;
  bool faults = false;
  flt::FaultScenario scenario;
};

/// fleet::simulate_device's evaluation run for a ready policy, wrapped for
/// prefetch when the fleet prefetches.
fleet::DeviceResult evaluate(const FleetSetup& s, const rt::QosProcess& qos,
                             const rt::RuntimeSimulator& sim, rt::AdaptationPolicy& policy,
                             std::uint64_t device, DeviceStreams& streams) {
  const exp::RuntimeEvalParams& p = s.config.params;
  if (p.prefetch) {
    rt::PrefetchPolicy wrapped(policy, s.db(), s.drc(), p.prefetch_params);
    return to_result(device, sim.run(s.db(), wrapped, qos, streams.eval, streams.active()));
  }
  return to_result(device, sim.run(s.db(), policy, qos, streams.eval, streams.active()));
}

/// rt::pretrain_aura step for step, with the timing wrapper in between.
void pretrain_timed(rt::AuraPolicy& policy, const dse::DesignDb& db, const rt::QosProcess& qos,
                    const exp::RuntimeEvalParams& p, util::Rng& rng, ReplayTallies& t) {
  rt::SimulationParams params;
  params.total_cycles = p.pretrain_cycles;
  const rt::RuntimeSimulator sim(params);
  policy.set_learning(true);
  TimingPolicy timed(policy, t.decisions, t.episodes);
  for (std::size_t s = 0; s < p.pretrain_sweeps; ++s) sim.run(db, timed, qos, rng);
  policy.set_learning(false);
  policy.neutralize_unvisited();
}

/// fleet::simulate_device rebuilt from the public runtime API with the
/// timing wrapper around the policy (inside any prefetch wrapper).
fleet::DeviceResult replay_device(const FleetSetup& s, const rt::QosProcess& qos,
                                  const rt::RuntimeSimulator& sim, const rt::MdpTable* table,
                                  std::uint64_t device, ReplayTallies& t, Report& report) {
  const exp::RuntimeEvalParams& p = s.config.params;
  DeviceStreams streams(s, device);
  TimingPolicy::Tally frozen_episodes;  // learning is off in evaluation: no value updates
  switch (p.kind) {
    case exp::PolicyKind::Mdp: {
      rt::MdpPolicy policy(s.db(), s.drc(), *table);
      TimingPolicy timed(policy, t.decisions, frozen_episodes);
      return evaluate(s, qos, sim, timed, device, streams);
    }
    case exp::PolicyKind::Aura: {
      rt::AuraPolicy policy(s.db(), s.drc(), p.p_rc, p.aura);
      if (p.pretrain) {
        rt::AuraPolicy reference(s.db(), s.drc(), p.p_rc, p.aura);
        util::Rng reference_rng = streams.pretrain;
        rt::pretrain_aura(reference, s.db(), qos, p.pretrain_cycles, p.pretrain_sweeps,
                          reference_rng);
        pretrain_timed(policy, s.db(), qos, p, streams.pretrain, t);
        const auto& got = policy.values();
        const auto& want = reference.values();
        if (got.size() != want.size() ||
            std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0 ||
            policy.visit_counts() != reference.visit_counts()) {
          report.fail("replay: timed pre-training differs from rt::pretrain_aura");
        }
      }
      TimingPolicy timed(policy, t.decisions, frozen_episodes);
      return evaluate(s, qos, sim, timed, device, streams);
    }
    default:
      throw std::logic_error("replay: policy kind not used by the fleet workloads");
  }
}

/// Traced-run attribution of one traced rep, measured outside its timed
/// phase right after it: the MDP solve, a bare sequential simulate_device
/// loop over every device and, for AuRA, a split pass that times each
/// device's rt::pretrain_aura apart from its evaluation run. The first pass
/// also replays sampled devices through the timing wrapper. Pairing each pass
/// with its rep keeps slow drift between reps out of fleet.overhead_s and the
/// stage-sum ratio.
struct PassTimes {
  double run_s = 0.0;       ///< the traced run_fleet rep this pass follows
  double solve_s = 0.0;     ///< rt::build_mdp_table
  double loop_s = 0.0;      ///< bare simulate_device loop
  double pretrain_s = 0.0;  ///< split pass: pre-training of every device
  double evaluate_s = 0.0;  ///< evaluation runs alone (= loop_s without pre-training)
};

struct Attribution {
  std::vector<PassTimes> passes;  ///< one per traced rep
  std::uint64_t events = 0;       ///< QoS events of the evaluation runs, per pass
  std::uint64_t mdp_states = 0;
  std::vector<double> device_us;  ///< every device of every pass
  ReplayTallies tallies;
};

/// Blocks summed from per-device results must equal run_fleet's.
void check_blocks(const std::vector<fleet::BlockSum>& blocks, const fleet::FleetResult& result,
                  const char* what, Report& report) {
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (!same_bytes(blocks[b], result.progress.blocks[b])) {
      report.fail(std::string(what) + ": block " + std::to_string(b) + " differs from run_fleet");
    }
  }
}

void attribution_pass(const FleetSetup& s, const Rep& rep, Attribution& a, Report& report) {
  const fleet::FleetConfig& c = s.config;
  const exp::RuntimeEvalParams& p = c.params;
  const rt::QosProcess qos(c.ranges, p.qos);
  const rt::RuntimeSimulator sim(p.sim);
  const bool first = a.passes.empty();
  PassTimes& t = a.passes.emplace_back();
  t.run_s = rep.wall_s;

  std::optional<rt::MdpTable> table;
  if (p.kind == exp::PolicyKind::Mdp) {
    const Clock::time_point start = Clock::now();
    {
      Span span("runtime.mdp_solve");
      table = solve_mdp(s);
    }
    t.solve_s = seconds_since(start);
    a.mdp_states = table->num_states();
  }
  const rt::MdpTable* table_ptr = table ? &*table : nullptr;

  const std::uint64_t stride = std::max<std::uint64_t>(1, c.devices / kReplayDevices);
  std::vector<fleet::BlockSum> blocks(rep.result.progress.blocks.size());
  std::vector<fleet::DeviceResult> sampled;
  std::uint64_t events = 0;
  const Clock::time_point loop_start = Clock::now();
  {
    Span span("runtime.device_loop");
    for (std::uint64_t d = 0; d < c.devices; ++d) {
      const Clock::time_point start = Clock::now();
      const fleet::DeviceResult r = fleet::simulate_device(
          s.db(), s.drc(), qos, sim, p, &s.app->clr_space(), d, c.seed, table_ptr);
      a.device_us.push_back(seconds_since(start) * 1e6);
      blocks[d / c.block_size].add(r);
      events += r.events;
      if (first && d % stride == 0) sampled.push_back(r);
    }
  }
  t.loop_s = seconds_since(loop_start);
  a.events = events;
  check_blocks(blocks, rep.result, "device loop", report);

  t.evaluate_s = t.loop_s;
  if (p.kind == exp::PolicyKind::Aura && p.pretrain) {
    Span span("runtime.split_loop");
    std::fill(blocks.begin(), blocks.end(), fleet::BlockSum{});
    t.evaluate_s = 0.0;
    for (std::uint64_t d = 0; d < c.devices; ++d) {
      DeviceStreams streams(s, d);
      rt::AuraPolicy policy(s.db(), s.drc(), p.p_rc, p.aura);
      Clock::time_point start = Clock::now();
      {
        Span pretrain("runtime.pretrain");
        rt::pretrain_aura(policy, s.db(), qos, p.pretrain_cycles, p.pretrain_sweeps,
                          streams.pretrain);
      }
      t.pretrain_s += seconds_since(start);
      start = Clock::now();
      {
        Span evaluation("runtime.evaluate");
        blocks[d / c.block_size].add(evaluate(s, qos, sim, policy, d, streams));
      }
      t.evaluate_s += seconds_since(start);
    }
    check_blocks(blocks, rep.result, "split loop", report);
  }

  if (!first) return;
  Span span("runtime.replay");
  for (const fleet::DeviceResult& expected : sampled) {
    const fleet::DeviceResult got =
        replay_device(s, qos, sim, table_ptr, expected.device, a.tallies, report);
    if (!same_bytes(got, expected)) {
      report.fail("replay: device " + std::to_string(expected.device) +
                  " differs from simulate_device");
    }
  }
}

void report_attribution(const FleetSpec& f, const Attribution& a,
                        const fleet::FleetResult& result, Report& report) {
  if (a.passes.empty()) return;  // no traced rep completed; run_reps recorded why
  const fleet::BlockSum& totals = result.summary.totals;
  std::vector<double> run, solve, pretrain, evaluate_times, overhead, stage_sum;
  for (const PassTimes& t : a.passes) {
    run.push_back(t.run_s);
    solve.push_back(t.solve_s);
    pretrain.push_back(t.pretrain_s);
    evaluate_times.push_back(t.evaluate_s);
    overhead.push_back(t.run_s - t.solve_s - t.loop_s);
    stage_sum.push_back((t.solve_s + t.loop_s) / t.run_s);
  }
  const double run_s = median(run);
  const double solve_s = median(solve);
  const double pretrain_s = median(pretrain);
  const double evaluate_s = median(evaluate_times);
  const double overhead_s = median(overhead);
  const auto per_call_ns = [](const TimingPolicy::Tally& t) {
    return t.calls > 0 ? t.seconds * 1e9 / static_cast<double>(t.calls) : 0.0;
  };
  report.layer("fleet.run_s", run_s, "s");
  report.layer("fleet.overhead_s", overhead_s, "s");
  report.layer("runtime.events", static_cast<double>(a.events), "count");
  report.layer("runtime.ns_per_event",
               a.events > 0 ? evaluate_s * 1e9 / static_cast<double>(a.events) : 0.0, "ns");
  report.layer("runtime.devices_timed", static_cast<double>(a.device_us.size()), "count");
  report.layer("runtime.device_us_p50", util::percentile(a.device_us, 0.50), "us");
  report.layer("runtime.device_us_p99", util::percentile(a.device_us, 0.99), "us");
  report.layer("runtime.select_calls", static_cast<double>(a.tallies.decisions.calls), "count");
  report.layer("runtime.select_ns", per_call_ns(a.tallies.decisions), "ns");
  if (f.kind == exp::PolicyKind::Mdp) {
    report.layer("runtime.mdp_solve_s", solve_s, "s");
    report.layer("runtime.mdp_states", static_cast<double>(a.mdp_states), "count");
  }
  if (f.prefetch) {
    const double attempts = static_cast<double>(totals.prefetch_hits + totals.prefetch_misses);
    report.layer("sim.icap_attempts", attempts, "count");
    report.layer("sim.icap_hit_ratio",
                 attempts > 0 ? static_cast<double>(totals.prefetch_hits) / attempts : 0.0,
                 "fraction");
  }
  if (f.fault_rate > 0.0 || f.pe_mtbf > 0.0) {
    report.layer("faults.transient", static_cast<double>(totals.transient_faults), "count");
    report.layer("faults.permanent", static_cast<double>(totals.permanent_faults), "count");
    report.layer("faults.evacuations", static_cast<double>(totals.evacuations), "count");
    report.layer("faults.safe_mode_entries", static_cast<double>(totals.safe_mode_entries),
                 "count");
  }
  if (f.kind == exp::PolicyKind::Aura) {
    report.layer("runtime.pretrain_s", pretrain_s, "s");
    report.layer("runtime.end_episode_calls", static_cast<double>(a.tallies.episodes.calls),
                 "count");
    report.layer("runtime.end_episode_ns", per_call_ns(a.tallies.episodes), "ns");
  }
  // The timed phase split into its stages, each as a share of fleet.run_s.
  if (run_s > 0.0) {
    if (f.kind == exp::PolicyKind::Mdp) {
      report.layer("share.runtime.mdp_solve", solve_s / run_s, "fraction");
    }
    if (f.kind == exp::PolicyKind::Aura) {
      report.layer("share.runtime.pretrain", pretrain_s / run_s, "fraction");
    }
    report.layer("share.runtime.simulate", evaluate_s / run_s, "fraction");
    report.layer("share.fleet.overhead", overhead_s / run_s, "fraction");
  }
  // ROADMAP's stage-sum figure: the separately timed stages (MDP solve plus
  // the bare device loop) over run_fleet's time, per rep. Reported, not
  // checked against a tolerance: see NOTES.md.
  report.layer("trace.stage_sum_ratio", median(stage_sum), "fraction");
}

/// Timed reps until `budget_s` is measured (or exactly `fixed` reps when
/// non-zero). Every rep counts its devices as attempted. The first rep of the
/// untraced pass gets the full output checks; every later rep (and every
/// traced rep) must reproduce its digest. `after_rep` runs after each rep,
/// outside its timed phase.
std::vector<Rep> run_reps(const FleetSetup& s, double budget_s, std::size_t fixed,
                          const rt::MdpTable* table, const std::string& expected_digest,
                          Report& report, const std::function<void(const Rep&)>& after_rep = {}) {
  const std::uint64_t devices = s.config.devices;
  std::vector<Rep> reps;
  std::vector<double> walls;
  while (fixed != 0 ? reps.size() < fixed : want_more_reps(walls, budget_s, 3)) {
    Rep rep;
    report.attempted += devices;
    const Clock::time_point start = Clock::now();
    try {
      Span span("bench.timed");
      Span run("fleet.run");
      rep.result = fleet::run_fleet(s.db(), s.drc(), &s.app->clr_space(), s.config);
    } catch (const std::exception& e) {
      rep.ok = false;
      report.fail(std::string("run_fleet: ") + e.what());
      report.failed += devices;
    }
    rep.wall_s = seconds_since(start);
    walls.push_back(rep.wall_s);
    if (!rep.ok) {
      reps.push_back(std::move(rep));
      return reps;
    }

    {
      Span check("bench.check");
      const std::string digest = fleet_digest(rep.result);
      if (reps.empty() && expected_digest.empty()) {
        report.failed += check_result(s, rep.result, table, report);
      } else if (digest != (expected_digest.empty() ? fleet_digest(reps.front().result)
                                                    : expected_digest)) {
        report.fail("fleet: outputs differ between repetitions or traced/untraced runs");
        report.failed += devices;
      }
    }
    if (after_rep) after_rep(rep);
    reps.push_back(std::move(rep));
  }
  return reps;
}

}  // namespace

void generate_artifact(const std::string& workload, const std::string& path) {
  const FleetSpec& f = fleet_spec(workload);
  const auto app = exp::make_synthetic_app(f.tasks, kAppSeed);
  const exp::FlowParams params = explore_flow_params();
  util::Rng rng(flow_seed(kAppSeed));
  const exp::FlowResult flow = exp::run_design_flow(*app, params, rng);
  recfg::ReconfigModel reconfig(app->platform(), app->impls());
  util::ThreadPool pool(params.dse.threads);
  rt::DrcMatrix drc(flow.red, reconfig, &pool);
  io::save_snapshot(path, flow.red, app->clr_space(), &drc);
}

Report run_fleet_workload(const RunOptions& opt) {
  const FleetSpec& f = fleet_spec(opt.workload);
  Report report;
  report.workload = f.name;

  const FleetSetup s = set_up(f, opt.input, opt.seed);
  const std::optional<rt::MdpTable> table = solve_mdp(s);
  const rt::MdpTable* table_ptr = table ? &*table : nullptr;

  const auto set_up_again = [&] { set_up(f, opt.input, opt.seed); };
  const auto sample_after_rep = [&](const Rep&) {
    sample_setups(set_up_again, kSetupSamplesPerRep, report.setup_samples);
  };
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::vector<Rep> plain =
      run_reps(s, budget, 0, table_ptr, "", report, sample_after_rep);
  for (const Rep& r : plain) report.wall_samples.push_back(r.wall_s);
  report.reps = plain.size();
  report.digest = fleet_digest(plain.front().result);
  if (!opt.trace || !plain.back().ok) {
    const std::size_t have = std::min(kSetupSamples, report.setup_samples.size());
    sample_setups(set_up_again, kSetupSamples - have, report.setup_samples);
    report.peak_rss_mb = peak_rss_mb();
    return report;
  }

  // Traced run: the same number of reps again with bench spans on, each
  // followed by its attribution pass (outside bench.timed), then the set-up
  // samples.
  start_tracing();
  Attribution attribution;
  const auto attribute = [&](const Rep& rep) { attribution_pass(s, rep, attribution, report); };
  run_reps(s, 0.0, plain.size(), table_ptr, report.digest, report, attribute);
  std::vector<double> traced_setups;  // for the io.snapshot_open spans only
  sample_setups(set_up_again, kSetupSamples, traced_setups);
  const std::vector<SpanRecord> spans = stop_tracing();
  if (!opt.trace_out.empty()) write_chrome_trace(opt.trace_out);

  report_attribution(f, attribution, plain.front().result, report);
  report.layer("io.snapshot_open_s", median(durations(spans, "io.snapshot_open")), "s");
  summarize_trace(spans, report);
  return report;
}

}  // namespace clr::bench
