#include "runtime/simulator.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "runtime/prefetch.hpp"
#include "trace/trace.hpp"

namespace clr::rt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

RuntimeStats RuntimeSimulator::run(const dse::DesignDb& db, AdaptationPolicy& policy,
                                   const QosProcess& qos, util::Rng& rng) const {
  return run(db, policy, qos, rng, nullptr);
}

RuntimeStats RuntimeSimulator::run(const dse::DesignDb& db, AdaptationPolicy& policy,
                                   const QosProcess& qos, util::Rng& rng,
                                   const flt::FaultScenario* scenario) const {
  if (db.empty()) throw std::invalid_argument("RuntimeSimulator: empty database");
  if (params_.total_cycles <= 0.0) {
    throw std::invalid_argument("RuntimeSimulator: total_cycles must be > 0");
  }

  const bool faults_on = scenario != nullptr && scenario->params.enabled();

  CLR_TRACE_SPAN(run_span, trace::Category::Runtime, "rt.run",
                 {{"points", db.size()},
                  {"cycles", params_.total_cycles},
                  {"faults", faults_on}});

  RuntimeStats stats;
  stats.total_cycles = params_.total_cycles;
  policy.reset();

  // Speculative-staging hooks are only driven when the policy is wrapped in a
  // PrefetchPolicy; otherwise every reconfiguration stalls its full dRC and
  // reconfig_stall_time degenerates to total_reconfig_cost exactly.
  auto* prefetch = dynamic_cast<PrefetchPolicy*>(&policy);

  // Fault-side state. The injector owns the dedicated fault Rng, so the QoS
  // stream (`rng`) sees the exact same draws at any fault rate — and zero
  // extra draws when faults are off.
  std::optional<flt::PlatformHealth> health;
  std::optional<flt::FaultInjector> injector;
  if (faults_on) {
    std::vector<flt::PeFaultProfile> profiles = scenario->profiles;
    if (profiles.empty()) profiles = flt::uniform_profiles(std::max<std::size_t>(db.pe_bound(), 1));
    health.emplace(db, profiles.size());
    injector.emplace(scenario->params, std::move(profiles), scenario->seed);
    policy.set_health(&*health);
  }
  // The health object dies with this frame: never leave the policy holding a
  // dangling pointer, even on an exceptional exit.
  struct HealthGuard {
    AdaptationPolicy& policy;
    ~HealthGuard() { policy.set_health(nullptr); }
  } health_guard{policy};

  // Initial placement: policy decision for the first spec, free of charge —
  // and, for learning policies, free of episode recording too (the hint
  // point was never occupied, so no dRC was actually paid).
  dse::QosSpec spec = qos.sample_spec(rng);
  std::size_t current = policy.select_initial(db.least_violating(spec), spec).point;
  bool violating = !db.point(current).feasible_for(spec);
  bool safe_mode = false;

  double now = 0.0;
  double next_event = qos.sample_gap(rng);
  double next_episode = params_.episode_cycles;
  double energy_weighted = 0.0;
  double repair_time = 0.0;
  std::size_t repairs = 0;

  const auto trace_push = [&](const EventRecord& ev) {
    if (stats.trace.size() < params_.trace_events) stats.trace.push_back(ev);
  };

  // Degraded-mode fallback chain (tentpole): called when the active point
  // died under a permanent fault, or at a QoS event while in safe mode.
  //   Tier 1 — policy's best pick among feasible points on alive PEs;
  //   Tier 2 — relaxed-QoS fallback: the pick violates the spec, but within
  //            FaultParams::qos_tolerance;
  //   Tier 3 — safe-mode sentinel: nothing acceptable (or nothing alive);
  //            downtime accrues until a later requirement is coverable.
  const auto resolve_degraded = [&](EventRecord& rec) {
    // The port is needed for any emergency load (and useless in safe mode):
    // drop whatever speculation is in flight. Evacuations never get hidden
    // latency — the predictor staged for a QoS drift, not a PE death.
    if (prefetch != nullptr) prefetch->cancel_staged();
    if (health->num_alive_points() == 0) {
      if (!safe_mode) {
        safe_mode = true;
        ++stats.num_safe_mode_entries;
        CLR_TRACE_INSTANT(trace::Category::Runtime, "rt.safe_mode",
                          {{"t", now}, {"reason", "no_alive_points"}});
      }
      violating = true;
      rec.infeasible = true;
      return;
    }
    const Decision d = policy.select(current, spec);
    const double viol = db.violation_of(d.point, spec);
    if (viol <= scenario->params.qos_tolerance) {
      ++stats.num_evacuations;
      ++stats.num_reconfigs;
      stats.total_reconfig_cost += d.drc;
      stats.reconfig_stall_time += d.drc;  // emergency loads stall in full
      stats.max_drc = std::max(stats.max_drc, d.drc);
      stats.downtime += d.drc;  // the migration is a service interruption
      repair_time += d.drc;
      ++repairs;
      CLR_TRACE_INSTANT(trace::Category::Runtime, "rt.reconfig",
                        {{"t", now},
                         {"from", current},
                         {"to", d.point},
                         {"drc", d.drc},
                         {"reason", safe_mode ? "safe_mode_exit" : "evacuation"},
                         {"qos_violation", viol}});
      current = d.point;
      safe_mode = false;
      violating = viol > 0.0;
      rec.reconfigured = true;
      rec.drc = d.drc;
      rec.infeasible = d.feasible_set_empty;
    } else {
      if (!safe_mode) {
        safe_mode = true;
        ++stats.num_safe_mode_entries;
        CLR_TRACE_INSTANT(trace::Category::Runtime, "rt.safe_mode",
                          {{"t", now}, {"reason", "qos_beyond_tolerance"}});
      }
      violating = true;
      rec.infeasible = true;
    }
  };

  while (now < params_.total_cycles) {
    const double next_fault = faults_on ? injector->next_time() : kInf;
    const double horizon =
        std::min({next_event, next_episode, params_.total_cycles, next_fault});
    if (!safe_mode) energy_weighted += db.point(current).energy * (horizon - now);
    if (violating || safe_mode) stats.qos_violation_time += horizon - now;
    if (safe_mode) stats.downtime += horizon - now;
    now = horizon;

    if (now >= params_.total_cycles) break;

    if (now == next_episode) {
      policy.end_episode();
      next_episode += params_.episode_cycles;
      if (now != next_event && now != next_fault) continue;
    }

    if (faults_on && now == next_fault) {
      const flt::FaultEvent fe = injector->pop();
      EventRecord rec{now, current, 0.0, false, false, fe.kind, false, false};
      if (fe.kind == flt::FaultKind::Transient) {
        ++stats.num_transient_faults;
        // A soft error only matters when it strikes a PE the active point is
        // actually running on; safe mode executes nothing.
        const bool hit = !safe_mode && db.uses_pe(current, fe.pe);
        bool recovered = false;
        if (hit) {
          const auto& tasks = db.point(current).config.tasks;
          std::vector<std::size_t> on_pe;
          for (std::size_t t = 0; t < tasks.size(); ++t) {
            if (tasks[t].pe == fe.pe) on_pe.push_back(t);
          }
          const auto& struck = tasks[on_pe[injector->rng().index(on_pe.size())]];
          const double p_recover =
              scenario->clr_space != nullptr
                  ? flt::recovery_probability(scenario->clr_space->config(struck.clr_index))
                  : scenario->params.fallback_coverage;
          if (injector->rng().chance(p_recover)) {
            recovered = true;
            ++stats.num_recovered_transients;
            const double latency = scenario->params.recovery_latency;
            stats.downtime += latency;
            repair_time += latency;
            ++repairs;
            // Re-execution work: the recovery window burns the active
            // point's energy rate on redone computation.
            energy_weighted +=
                scenario->params.reexec_energy_factor * db.point(current).energy * latency;
          } else {
            ++stats.num_unrecovered_failures;
          }
        }
        CLR_TRACE_INSTANT(trace::Category::Runtime, "rt.fault.transient",
                          {{"t", now},
                           {"pe", fe.pe},
                           {"hit_active_point", hit},
                           {"recovered", recovered}});
      } else {  // permanent wear-out
        ++stats.num_permanent_faults;
        health->kill_pe(fe.pe);
        CLR_TRACE_INSTANT(trace::Category::Runtime, "rt.fault.permanent",
                          {{"t", now},
                           {"pe", fe.pe},
                           {"alive_points", health->num_alive_points()},
                           {"active_point_lost", !health->point_alive(current)}});
        if (!safe_mode && !health->point_alive(current)) resolve_degraded(rec);
      }
      rec.point = current;
      rec.violation = violating || safe_mode;
      rec.safe_mode = safe_mode;
      trace_push(rec);
      if (now != next_event) continue;
    }

    // QoS-change event (requirements drift per the AR(1) process).
    spec = qos.next_spec(spec, rng);
    ++stats.num_events;
    if (safe_mode) {
      // Try to climb back out of safe mode under the new requirement.
      EventRecord rec{now, current, 0.0, false, false, flt::FaultKind::None, true, true};
      resolve_degraded(rec);
      if (rec.infeasible) ++stats.num_infeasible_events;
      CLR_TRACE_INSTANT(trace::Category::Runtime, "rt.qos_event",
                        {{"t", now},
                         {"point", current},
                         {"reconfigured", rec.reconfigured},
                         {"infeasible", rec.infeasible},
                         {"violation", violating || safe_mode}});
      rec.point = current;
      rec.violation = violating || safe_mode;
      rec.safe_mode = safe_mode;
      trace_push(rec);
    } else {
      const Decision d = policy.select(current, spec);
      if (d.feasible_set_empty) ++stats.num_infeasible_events;

      const bool reconfigured = d.point != current;
      const double drc = reconfigured ? d.drc : 0.0;
      if (reconfigured) {
        ++stats.num_reconfigs;
        stats.total_reconfig_cost += drc;
        stats.max_drc = std::max(stats.max_drc, drc);
        double stall = drc;
        if (prefetch != nullptr) {
          const PrefetchPolicy::Credit credit = prefetch->credit_for(d.point, drc, now);
          stats.prefetch_hidden_time += credit.hidden;
          stall = drc - credit.hidden;
          if (credit.hit) {
            ++stats.prefetch_hits;
          } else if (credit.had_stage) {
            ++stats.prefetch_misses;  // cancel-on-mispredict
          }
        }
        stats.reconfig_stall_time += stall;
        CLR_TRACE_INSTANT(trace::Category::Runtime, "rt.reconfig",
                          {{"t", now},
                           {"from", current},
                           {"to", d.point},
                           {"drc", drc},
                           {"reason", "qos_change"}});
      }
      current = d.point;
      violating = !db.point(current).feasible_for(spec);
      CLR_TRACE_INSTANT(trace::Category::Runtime, "rt.qos_event",
                        {{"t", now},
                         {"point", d.point},
                         {"reconfigured", reconfigured},
                         {"infeasible", d.feasible_set_empty},
                         {"violation", violating}});
      trace_push(EventRecord{now, d.point, drc, reconfigured, d.feasible_set_empty,
                             flt::FaultKind::None, violating, false});
    }
    // Speculate on the NEXT requirement while the current one is serviced.
    if (prefetch != nullptr && !safe_mode) prefetch->stage_predicted(current, now);
    next_event = now + qos.sample_gap(rng);
  }
  policy.end_episode();

  stats.avg_energy = energy_weighted / params_.total_cycles;
  stats.avg_reconfig_cost =
      stats.num_events > 0 ? stats.total_reconfig_cost / static_cast<double>(stats.num_events)
                           : 0.0;
  stats.availability =
      std::clamp(1.0 - stats.downtime / params_.total_cycles, 0.0, 1.0);
  stats.mttr = repairs > 0 ? repair_time / static_cast<double>(repairs) : 0.0;
  stats.service_availability = std::clamp(
      1.0 - (stats.downtime + stats.reconfig_stall_time) / params_.total_cycles, 0.0, 1.0);
  return stats;
}

std::vector<double> pretrain_aura(AuraPolicy& policy, const dse::DesignDb& db,
                                  const QosProcess& qos, double cycles_per_sweep,
                                  std::size_t sweeps, util::Rng& rng) {
  SimulationParams params;
  params.total_cycles = cycles_per_sweep;
  RuntimeSimulator sim(params);
  policy.set_learning(true);
  for (std::size_t s = 0; s < sweeps; ++s) {
    sim.run(db, policy, qos, rng);
  }
  policy.set_learning(false);
  policy.neutralize_unvisited();
  return policy.values();
}

}  // namespace clr::rt
