#include "experiments/session.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "io/checkpoint.hpp"

namespace clr::exp {

namespace {

void hash_ga(std::uint64_t& h, const moea::GaParams& ga) {
  util::fnv1a_value<std::uint64_t>(h, ga.population);
  util::fnv1a_value<std::uint64_t>(h, ga.generations);
  util::fnv1a_value<double>(h, ga.crossover_prob);
  util::fnv1a_value<double>(h, ga.mutation_prob);
  util::fnv1a_value<std::uint64_t>(h, ga.tournament_size);
  // ga.threads deliberately excluded: thread count never affects results.
}

void validate(const SessionControl& control) {
  if (control.checkpoint_every == 0) {
    throw std::invalid_argument("session: checkpoint_every must be >= 1");
  }
  if (control.resume && control.checkpoint_path.empty()) {
    throw std::invalid_argument("session: resume requires a checkpoint path");
  }
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
  // dse.threads, dse.batched_eval and dse.eval_cache_capacity deliberately
  // excluded: all three are bit-identical performance knobs (DESIGN.md §5.6,
  // §5.10), so a checkpoint taken at --jobs 8 resumes fine at --jobs 1.
  return h;
}

ExploreOutcome run_explore_session(const AppInstance& app, const FlowParams& params,
                                   std::uint64_t flow_seed, const SessionControl& control) {
  validate(control);
  const std::uint64_t param_hash = explore_param_hash(app, params, flow_seed);

  // The session's own stop source merges every stop signal: the external
  // token (signals, deadlines) is forwarded at each boundary, the step
  // budget arms it directly. Engines only ever see this merged token.
  util::StopSource session_stop;
  util::RunBudget budget(session_stop, control.step_budget);

  std::optional<io::CheckpointStore> store;
  if (!control.checkpoint_path.empty()) {
    store.emplace(control.checkpoint_path);
    store->check_writable();
  }

  std::optional<io::ExploreCheckpoint> restored;
  if (control.resume && store) {
    if (auto snapshot = store->load_newest()) {
      io::ExploreCheckpoint c = io::decode_explore_checkpoint(snapshot->view());
      if (c.param_hash != param_hash) {
        throw std::runtime_error(
            "explore resume: the checkpoint was taken under different parameters (hash " +
            std::to_string(c.param_hash) + ", this run computes " + std::to_string(param_hash) +
            ")");
      }
      restored = std::move(c);
    }
    // No loadable checkpoint: start fresh, so the first run and every
    // resumed run share one command line.
  }

  ExploreOutcome out;
  out.resumed = restored.has_value();

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

  // Shared boundary bookkeeping: count the step, fold in external stop and
  // budget, then decide whether this boundary becomes a durable checkpoint
  // (every Nth, and always the one we stop on).
  auto boundary = [&](io::ExploreCheckpoint&& c) {
    out.steps += 1;
    budget.step();
    if (control.stop.stop_requested()) session_stop.request_stop(control.stop.reason());
    const bool stopping = session_stop.stop_requested();
    if (store && (stopping || out.steps % control.checkpoint_every == 0)) {
      c.sequence = store->next_sequence();
      c.param_hash = param_hash;
      c.spec_max_makespan = flow.spec.max_makespan;
      c.spec_min_func_rel = flow.spec.min_func_rel;
      store->save(io::serialize_explore_checkpoint(c));
      out.checkpoints_written += 1;
    }
  };

  // Stage 1: BaseD. Skipped entirely when the checkpoint is already in the
  // ReD stage (the finished BaseD database travels in the checkpoint).
  bool base_complete = true;
  if (restored && restored->stage == 1) {
    flow.based = restored->based;
  } else {
    dse::BaseControl base_control;
    base_control.stop = session_stop.token();
    dse::BaseProgress base_resume;
    if (restored) {
      base_resume.ref = restored->ref;
      base_resume.scale = restored->scale;
      base_resume.ga = restored->ga;
      base_control.resume = &base_resume;
    }
    base_control.on_boundary = [&](const dse::BaseProgress& p) {
      io::ExploreCheckpoint c;
      c.stage = 0;
      c.ref = p.ref;
      c.scale = p.scale;
      c.ga = p.ga;
      boundary(std::move(c));
    };
    dse::StageOutcome base = dse_flow.run_base_resumable(rng, base_control);
    flow.based = std::move(base.db);
    base_complete = base.complete;
  }
  if (!base_complete) {
    out.flow = std::move(flow);
    out.complete = false;
    out.stop_reason = session_stop.reason();
    return out;
  }
  if (flow.based.empty()) {
    throw std::runtime_error("run_explore_session: design-time DSE found no feasible point");
  }

  // Stage 2: ReD.
  dse::RedControl red_control;
  red_control.stop = session_stop.token();
  dse::RedProgress red_resume;
  if (restored && restored->stage == 1) {
    red_resume.seed_pos = static_cast<std::size_t>(restored->red_seed_pos);
    red_resume.ga = restored->ga;
    red_resume.red = restored->red;
    red_control.resume = &red_resume;
  }
  red_control.on_boundary = [&](const dse::RedProgress& p) {
    io::ExploreCheckpoint c;
    c.stage = 1;
    c.ga = p.ga;
    c.red_seed_pos = p.seed_pos;
    c.based = flow.based;
    c.red = p.red;
    boundary(std::move(c));
  };
  dse::StageOutcome red = dse_flow.run_red_resumable(flow.based, rng, red_control);
  flow.red = std::move(red.db);
  out.complete = red.complete;
  out.flow = std::move(flow);
  out.stop_reason = session_stop.reason();
  return out;
}

RunnerOutcome run_runner_session(Runner& runner, const SessionControl& control) {
  validate(control);
  const std::uint64_t grid_hash = runner.grid_hash();

  util::StopSource session_stop;
  util::RunBudget budget(session_stop, control.step_budget);

  std::optional<io::CheckpointStore> store;
  if (!control.checkpoint_path.empty()) {
    store.emplace(control.checkpoint_path);
    store->check_writable();
  }

  RunnerOutcome out;
  RunnerProgress restored;
  RunnerControl runner_control;
  runner_control.stop = session_stop.token();
  // One wave of checkpoint_every jobs between boundaries: the runner's
  // batch size IS the checkpoint cadence.
  runner_control.batch_size = control.checkpoint_every;

  if (control.resume && store) {
    if (auto snapshot = store->load_newest()) {
      io::RunnerCheckpoint c = io::decode_runner_checkpoint(snapshot->view());
      if (c.grid_hash != grid_hash) {
        throw std::runtime_error(
            "runner resume: the checkpoint was taken for a different grid (hash " +
            std::to_string(c.grid_hash) + ", this grid computes " + std::to_string(grid_hash) +
            ")");
      }
      restored.grid_hash = c.grid_hash;
      restored.replications = static_cast<std::size_t>(c.replications);
      restored.done = std::move(c.done);
      restored.runs = std::move(c.runs);
      runner_control.resume = &restored;
      out.resumed = true;
    }
  }

  std::size_t checkpointed_jobs = out.resumed ? restored.jobs_done() : 0;
  runner_control.on_batch = [&](const RunnerProgress& progress) {
    out.steps += 1;
    budget.step();
    if (control.stop.stop_requested()) session_stop.request_stop(control.stop.reason());
    // Every batch is a checkpoint boundary; skip the write only when no new
    // job finished (a stop can interrupt a wave before any claim).
    if (store && progress.jobs_done() != checkpointed_jobs) {
      io::RunnerCheckpoint c;
      c.sequence = store->next_sequence();
      c.grid_hash = progress.grid_hash;
      c.replications = progress.replications;
      c.done = progress.done;
      c.runs = progress.runs;
      store->save(io::serialize_runner_checkpoint(c));
      out.checkpoints_written += 1;
      checkpointed_jobs = progress.jobs_done();
    }
  };

  out.run = runner.run(runner_control);
  out.stop_reason = session_stop.reason();
  return out;
}

}  // namespace clr::exp
