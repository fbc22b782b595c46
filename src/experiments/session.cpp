#include "experiments/session.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"

namespace clr::exp {

Session::Session(const SessionControl& control) : control_(control) {
  if (control_.checkpoint_every == 0) {
    throw std::invalid_argument("session: checkpoint_every must be >= 1");
  }
  if (control_.resume && control_.checkpoint_path.empty()) {
    throw std::invalid_argument("session: resume requires a checkpoint path");
  }
  if (control_.checkpoint_path.empty()) return;
  store_.emplace(control_.checkpoint_path);
  store_->check_writable();
  // No loadable checkpoint: start fresh, so the first run and every resumed
  // run share one command line.
  if (control_.resume) slot_ = store_->load_newest();
  report_.resumed = slot_.has_value();
}

void Session::check_identity(std::uint64_t stored, std::uint64_t computed) const {
  if (stored == computed) return;
  throw std::runtime_error("resume: the checkpoint " + control_.checkpoint_path +
                           " was taken under different parameters (hash " +
                           std::to_string(stored) + ", this run computes " +
                           std::to_string(computed) + ")");
}

void Session::boundary(const std::function<std::string(std::uint64_t)>& image) {
  report_.steps += 1;
  if (control_.step_budget != 0 && report_.steps >= control_.step_budget) {
    stop_.request_stop(util::StopReason::Budget);
  }
  if (control_.stop.stop_requested()) stop_.request_stop(control_.stop.reason());
  if (!store_ || (!stop_.stop_requested() && report_.steps % control_.checkpoint_every != 0)) {
    return;
  }
  store_->save(image(store_->next_sequence()));
  report_.checkpoints_written += 1;
}

void Session::report(SessionReport& out) const {
  out = report_;
  out.stop_reason = stop_.reason();
}

namespace {

void hash_ga(std::uint64_t& h, const moea::GaParams& ga) {
  util::fnv1a_value<std::uint64_t>(h, ga.population);
  util::fnv1a_value<std::uint64_t>(h, ga.generations);
  util::fnv1a_value<double>(h, ga.crossover_prob);
  util::fnv1a_value<double>(h, ga.mutation_prob);
  util::fnv1a_value<std::uint64_t>(h, ga.tournament_size);
  // ga.threads deliberately excluded: thread count never affects results.
}

}  // namespace

std::uint64_t explore_param_hash(const AppInstance& app, const FlowParams& params,
                                 std::uint64_t flow_seed) {
  std::uint64_t h = util::kFnv1aBasis;
  util::fnv1a_value<std::uint64_t>(h, app.graph().num_tasks());
  util::fnv1a_value<std::uint64_t>(h, app.graph().num_edges());
  util::fnv1a_value<std::uint64_t>(h, app.platform().num_pes());
  util::fnv1a_value<std::uint64_t>(h, app.platform().num_pe_types());
  util::fnv1a_value<std::uint64_t>(h, app.clr_space().size());
  util::fnv1a_value<std::uint64_t>(h, flow_seed);
  util::fnv1a_value<std::uint32_t>(h, static_cast<std::uint32_t>(params.mode));
  util::fnv1a_value<std::uint64_t>(h, params.spec_samples);
  util::fnv1a_value<double>(h, params.makespan_quantile);
  util::fnv1a_value<double>(h, params.func_rel_quantile);
  hash_ga(h, params.dse.base_ga);
  hash_ga(h, params.dse.red_ga);
  util::fnv1a_value<double>(h, params.dse.tol_makespan_band);
  util::fnv1a_value<double>(h, params.dse.tol_func_rel_band);
  util::fnv1a_value<double>(h, params.dse.tol_energy);
  util::fnv1a_value<std::uint64_t>(h, params.dse.extras_per_seed);
  util::fnv1a_value<std::uint64_t>(h, params.dse.max_red_seeds);
  util::fnv1a_value<std::uint64_t>(h, params.dse.calibration_samples);
  util::fnv1a_value<std::uint8_t>(h, params.dse.heft_seeding ? 1 : 0);
  util::fnv1a_value<std::uint64_t>(h, params.dse.max_base_points);
  // dse.threads deliberately excluded: it is a bit-identical performance
  // knob (DESIGN.md §5.6), so a checkpoint taken at --jobs 8 resumes fine
  // at --jobs 1.
  return h;
}

ExploreOutcome run_explore_session(const AppInstance& app, const FlowParams& params,
                                   std::uint64_t flow_seed, Session&& session) {
  const std::uint64_t param_hash = explore_param_hash(app, params, flow_seed);
  std::optional<io::ExploreCheckpoint> restored;
  if (const io::SnapshotView* slot = session.checkpoint()) {
    restored = io::decode_explore_checkpoint(*slot);
    session.check_identity(restored->param_hash, param_hash);
  }

  ExploreOutcome out;
  util::Rng rng(flow_seed);
  FlowResult flow;
  if (restored) {
    // The spec was derived from RNG draws that precede every saved boundary;
    // restoring it (instead of re-deriving) keeps the fresh Rng untouched —
    // the GA resume path restores the true stream state anyway.
    flow.spec.max_makespan = restored->spec_max_makespan;
    flow.spec.min_func_rel = restored->spec_min_func_rel;
  } else {
    flow.spec = derive_spec(app.context(), params.mode, params.spec_samples,
                            params.makespan_quantile, params.func_rel_quantile, rng);
  }

  dse::MappingProblem problem(app.context(), flow.spec, params.mode);
  recfg::ReconfigModel reconfig(app.platform(), app.impls());
  dse::DesignTimeDse dse_flow(problem, reconfig, params.dse);

  // The fields every explore checkpoint carries. A stage adds its own, and
  // only at the boundaries the session keeps.
  const auto checkpoint_at = [&](std::uint64_t sequence) {
    io::ExploreCheckpoint c;
    c.sequence = sequence;
    c.param_hash = param_hash;
    c.spec_max_makespan = flow.spec.max_makespan;
    c.spec_min_func_rel = flow.spec.min_func_rel;
    return c;
  };

  // Stage 1: BaseD. Skipped entirely when the checkpoint is already in the
  // ReD stage (the finished BaseD database travels in the checkpoint).
  bool base_complete = true;
  if (restored && restored->stage == 1) {
    flow.based = restored->based;
  } else {
    dse::BaseControl base_control;
    base_control.stop = session.stop();
    dse::BaseProgress base_resume;
    if (restored) {
      base_resume.ref = restored->ref;
      base_resume.scale = restored->scale;
      base_resume.ga = restored->ga;
      base_control.resume = &base_resume;
    }
    base_control.on_boundary = [&](const dse::BaseProgress& p) {
      session.boundary([&](std::uint64_t sequence) {
        io::ExploreCheckpoint c = checkpoint_at(sequence);
        c.stage = 0;
        c.ref = p.ref;
        c.scale = p.scale;
        c.ga = p.ga;
        return io::serialize_explore_checkpoint(c);
      });
    };
    dse::StageOutcome base = dse_flow.run_base_resumable(rng, base_control);
    flow.based = std::move(base.db);
    base_complete = base.complete;
  }
  if (!base_complete) {
    out.flow = std::move(flow);
    out.complete = false;
    session.report(out);
    return out;
  }
  if (flow.based.empty()) {
    throw std::runtime_error("run_explore_session: design-time DSE found no feasible point");
  }

  // Stage 2: ReD.
  dse::RedControl red_control;
  red_control.stop = session.stop();
  dse::RedProgress red_resume;
  if (restored && restored->stage == 1) {
    red_resume.seed_pos = static_cast<std::size_t>(restored->red_seed_pos);
    red_resume.ga = restored->ga;
    red_resume.red = restored->red;
    red_control.resume = &red_resume;
  }
  red_control.on_boundary = [&](const dse::RedProgress& p) {
    session.boundary([&](std::uint64_t sequence) {
      io::ExploreCheckpoint c = checkpoint_at(sequence);
      c.stage = 1;
      c.ga = p.ga;
      c.red_seed_pos = p.seed_pos;
      c.based = flow.based;
      c.red = p.red;
      return io::serialize_explore_checkpoint(c);
    });
  };
  dse::StageOutcome red = dse_flow.run_red_resumable(flow.based, rng, red_control);
  flow.red = std::move(red.db);
  out.complete = red.complete;
  out.flow = std::move(flow);
  session.report(out);
  return out;
}

RunnerOutcome run_runner_session(Runner& runner, Session&& session) {
  RunnerControl control;
  std::optional<io::RunnerCheckpoint> restored;
  if (const io::SnapshotView* slot = session.checkpoint()) {
    restored = io::decode_runner_checkpoint(*slot);
    session.check_identity(restored->grid_hash, runner.grid_hash());
    control.resume = &*restored;
  }
  control.stop = session.stop();
  control.on_boundary = [&](const RunnerProgress& progress) {
    session.boundary([&](std::uint64_t sequence) {
      return io::serialize_runner_checkpoint({progress, sequence});
    });
  };
  RunnerOutcome out;
  out.run = runner.run(control);
  session.report(out);
  return out;
}

}  // namespace clr::exp
