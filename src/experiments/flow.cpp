#include "experiments/flow.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/stats.hpp"
#include "runtime/drc_matrix.hpp"

namespace clr::exp {

dse::MetricRanges qos_ranges(const FlowResult& flow) {
  // The demand distribution must sweep across the *front's* QoS band —
  // requirements far looser than the band never force adaptation, and
  // requirements far tighter are never satisfiable. A modest slack on the
  // loose side keeps a share of everything-feasible events.
  const dse::MetricRanges base = flow.based.ranges();
  const double s_band = std::max(base.makespan_max - base.makespan_min, 1e-9);
  const double f_band = std::max(base.func_rel_max - base.func_rel_min, 1e-9);
  dse::MetricRanges box = base;
  box.makespan_max = std::min(base.makespan_max + 0.25 * s_band, flow.spec.max_makespan);
  box.makespan_max = std::max(box.makespan_max, base.makespan_max);  // spec can be tighter
  box.func_rel_min = std::max(base.func_rel_min - 0.25 * f_band, flow.spec.min_func_rel);
  box.func_rel_min = std::min(box.func_rel_min, base.func_rel_min);
  return box;
}

dse::MetricRanges db_qos_ranges(const dse::DesignDb& db) {
  const dse::MetricRanges r = db.ranges();
  dse::MetricRanges box = r;
  box.makespan_max = r.makespan_max + 0.25 * (r.makespan_max - r.makespan_min);
  box.func_rel_min = r.func_rel_min - 0.25 * (r.func_rel_max - r.func_rel_min);
  return box;
}

dse::QosSpec derive_spec(const sched::EvalContext& ctx, dse::ObjectiveMode mode,
                         std::size_t samples, double makespan_quantile,
                         double func_rel_quantile, util::Rng& rng) {
  // Bootstrap with a throwaway loose spec (MappingProblem requires one).
  dse::QosSpec loose{1e18, 0.0};
  dse::MappingProblem probe(ctx, loose, mode);

  std::vector<double> makespans;
  std::vector<double> func_rels;
  makespans.reserve(samples);
  func_rels.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    const auto cfg = probe.decode(probe.random_genes(rng));
    const auto res = probe.evaluate_schedule(cfg);
    makespans.push_back(res.makespan);
    func_rels.push_back(res.func_rel);
  }

  dse::QosSpec spec;
  spec.max_makespan = util::percentile(makespans, makespan_quantile);
  spec.min_func_rel = util::percentile(func_rels, func_rel_quantile);
  return spec;
}

FlowResult run_design_flow(const AppInstance& app, const FlowParams& params, util::Rng& rng) {
  FlowResult result;
  result.spec = derive_spec(app.context(), params.mode, params.spec_samples,
                            params.makespan_quantile, params.func_rel_quantile, rng);

  dse::MappingProblem problem(app.context(), result.spec, params.mode);
  recfg::ReconfigModel reconfig(app.platform(), app.impls());
  dse::DesignTimeDse dse_flow(problem, reconfig, params.dse);

  result.based = dse_flow.run_base(rng);
  if (result.based.empty()) {
    throw std::runtime_error("run_design_flow: design-time DSE found no feasible point");
  }
  result.red = dse_flow.run_red(result.based, rng);
  return result;
}

rt::RuntimeStats evaluate_policy(const AppInstance& app, const dse::DesignDb& db,
                                 const dse::MetricRanges& ranges,
                                 const RuntimeEvalParams& params, std::uint64_t seed) {
  recfg::ReconfigModel reconfig(app.platform(), app.impls());
  rt::DrcMatrix drc(db, reconfig);
  return evaluate_policy(app, db, drc, ranges, params, seed);
}

rt::RuntimeStats evaluate_policy(const AppInstance& app, const dse::DesignDb& db,
                                 const rt::DrcMatrix& drc, const dse::MetricRanges& ranges,
                                 const RuntimeEvalParams& params, std::uint64_t seed) {
  if (params.faults.enabled() && params.fault_profiles.empty()) {
    // Derive the per-PE fault heterogeneity from the platform model.
    RuntimeEvalParams derived = params;
    derived.fault_profiles = flt::profiles_from_platform(app.platform());
    return evaluate_policy_with(db, drc, ranges, derived, seed, &app.clr_space());
  }
  return evaluate_policy_with(db, drc, ranges, params, seed, &app.clr_space());
}

rt::RuntimeStats evaluate_policy_with(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                                      const dse::MetricRanges& ranges,
                                      const RuntimeEvalParams& params, std::uint64_t seed,
                                      const rel::ClrSpace* clr_space,
                                      const rt::MdpTable* mdp_table) {
  const rt::QosProcess qos(ranges, params.qos);
  const rt::RuntimeSimulator sim(params.sim);
  return evaluate_policy_on(db, drc, qos, sim, params, seed, clr_space, mdp_table);
}

rt::RuntimeStats evaluate_policy_on(const dse::DesignDb& db, const rt::DrcMatrix& drc,
                                    const rt::QosProcess& qos, const rt::RuntimeSimulator& sim,
                                    const RuntimeEvalParams& params, std::uint64_t seed,
                                    const rel::ClrSpace* clr_space,
                                    const rt::MdpTable* mdp_table) {
  util::SplitMix64 mix(seed);
  util::Rng pretrain_rng(mix.next());
  util::Rng eval_rng(mix.next());

  // The fault seed is drawn *after* (and only in addition to) the two
  // established streams, so enabling faults never perturbs the QoS or
  // pre-training sequences — and disabling them reproduces historical runs.
  flt::FaultScenario scenario;
  const flt::FaultScenario* active_scenario = nullptr;
  if (params.faults.enabled()) {
    params.faults.validate();
    scenario.params = params.faults;
    scenario.profiles = params.fault_profiles;
    scenario.seed = mix.next();
    scenario.clr_space = clr_space;
    active_scenario = &scenario;
  }

  // Optional prefetch wrapper: selection-transparent, so wrapping changes
  // only the new stall/hidden accounting — never the decision sequence.
  const auto run_with = [&](rt::AdaptationPolicy& policy) {
    if (params.prefetch) {
      rt::PrefetchPolicy wrapped(policy, db, drc, params.prefetch_params);
      return sim.run(db, wrapped, qos, eval_rng, active_scenario);
    }
    return sim.run(db, policy, qos, eval_rng, active_scenario);
  };

  switch (params.kind) {
    case PolicyKind::Baseline: {
      rt::BaselinePolicy policy(db, drc);
      return run_with(policy);
    }
    case PolicyKind::Ura: {
      rt::UraPolicy policy(db, drc, params.p_rc);
      return run_with(policy);
    }
    case PolicyKind::Aura: {
      rt::AuraPolicy policy(db, drc, params.p_rc, params.aura);
      if (params.pretrain) {
        // Pre-training stays fault-free: prior knowledge reflects the
        // nominal platform the design-time flow optimized for. The prefetch
        // wrapper (if any) is absent here on purpose: staging is an
        // evaluation-time effect, not part of the prior.
        rt::pretrain_aura(policy, db, qos, params.pretrain_cycles, params.pretrain_sweeps,
                          pretrain_rng);
      }
      return run_with(policy);
    }
    case PolicyKind::Mdp: {
      // Offline planning is deterministic (no RNG), so building the table
      // here — or reusing one prebuilt by the caller (fleet sweeps,
      // snapshot-loaded tables) — yields bit-identical runs.
      rt::MdpTable built;
      if (mdp_table == nullptr) {
        built = rt::build_mdp_table(db, drc, qos.ranges(), params.p_rc, params.qos,
                                    params.faults, params.mdp);
        mdp_table = &built;
      }
      rt::MdpPolicy policy(db, drc, *mdp_table);
      return run_with(policy);
    }
  }
  throw std::logic_error("evaluate_policy_on: unknown policy kind");
}

}  // namespace clr::exp
