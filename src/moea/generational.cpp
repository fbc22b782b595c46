#include "moea/generational.hpp"

#include <iterator>
#include <memory>

#include "common/parallel.hpp"
#include "moea/eval_cache.hpp"
#include "trace/trace.hpp"

namespace clr::moea {

MoeaResult run_generations(const Problem& problem, util::Rng& rng, const GaParams& params,
                           const std::vector<std::vector<int>>& seeds, util::ThreadPool* pool,
                           const GaRunControl* control, const GenerationSteps& steps) {
  // Private pool when the caller did not share one (a 1-thread pool runs
  // everything inline on this thread).
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (pool == nullptr && util::resolve_threads(params.threads) > 1) {
    owned_pool = std::make_unique<util::ThreadPool>(params.threads);
    pool = owned_pool.get();
  }
  const BatchEvaluator evaluator(problem, pool);
  MoeaResult result;
  const auto evaluate = [&](std::vector<Individual>& group) {
    std::vector<Individual*> batch;
    batch.reserve(group.size());
    for (auto& ind : group) batch.push_back(&ind);
    evaluator.evaluate(batch);
  };
  // The engine scores each evaluated member before the archive copies it.
  const auto archive = [&](std::vector<Individual>& group) {
    for (auto& ind : group) {
      if (steps.evaluated) steps.evaluated(ind);
      result.archive.insert(ind);
    }
  };

  auto& pop = result.population;
  pop.reserve(params.population);

  // Boundary reporting: the full restartable state at a generation boundary
  // is {population, archive, RNG stream, generation counter}; every RNG
  // draw happens sequentially on `rng`, so nothing else is hidden.
  const auto report_boundary = [&](std::uint64_t generations_done) {
    if (control == nullptr || !control->on_boundary) return;
    GaState state;
    state.generations_done = generations_done;
    state.population = pop;
    state.archive = result.archive.members();
    state.rng_state = rng.save_state();
    control->on_boundary(state);
  };

  std::uint64_t gen_start = 0;
  if (control != nullptr && control->resume != nullptr) {
    // Resume: restore the boundary state verbatim. Whatever the engine's
    // tournament reads (fitness, rank, crowding) travels inside Individual.
    // Re-inserting the archive members in order reproduces the archive
    // (they are feasible, mutually non-dominated and deduplicated). The
    // boundary callback is not re-fired for the restored state.
    const GaState& saved = *control->resume;
    pop = saved.population;
    for (const auto& member : saved.archive) result.archive.insert(member);
    rng.restore_state(saved.rng_state);
    gen_start = saved.generations_done;
  } else {
    for (const auto& seed : seeds) {
      if (pop.size() >= params.population) break;
      Individual ind;
      ind.genes = seed;
      problem.repair(ind.genes);
      pop.push_back(std::move(ind));
    }
    while (pop.size() < params.population) {
      Individual ind;
      ind.genes = problem.random_genes(rng);
      pop.push_back(std::move(ind));
    }
    evaluate(pop);
    archive(pop);
    steps.select(pop);  // nothing to drop: ranks the population in place
    report_boundary(0);
  }

  const auto better = [&](std::size_t a, std::size_t b) { return steps.prefer(pop[a], pop[b]); };
  for (std::size_t gen = gen_start; gen < params.generations; ++gen) {
    if (control != nullptr && control->stop.stop_requested()) {
      result.complete = false;
      break;
    }
    CLR_TRACE_SPAN(gen_span, trace::Category::Dse, steps.generation_span, {{"gen", gen}});
    // Generate phase: every RNG draw (tournaments, crossover, mutation)
    // happens here, sequentially on the master Rng; the draw order is
    // independent of how the evaluations below are scheduled.
    std::vector<Individual> offspring;
    offspring.reserve(params.population);
    while (offspring.size() < params.population) {
      const std::size_t pa = tournament(pop.size(), params.tournament_size, better, rng);
      const std::size_t pb = tournament(pop.size(), params.tournament_size, better, rng);
      Individual ca, cb;
      ca.genes = pop[pa].genes;
      cb.genes = pop[pb].genes;
      uniform_crossover(ca.genes, cb.genes, params.crossover_prob, rng);
      reset_mutation(problem, ca.genes, params.mutation_prob, rng);
      reset_mutation(problem, cb.genes, params.mutation_prob, rng);
      offspring.push_back(std::move(ca));
      // With an odd population the second child of the last pair is surplus:
      // drop it before evaluation (its mutation draws above keep the RNG
      // stream aligned with the even-population case).
      if (offspring.size() < params.population) offspring.push_back(std::move(cb));
    }

    // Evaluate phase: one parallel batch per generation.
    {
      CLR_TRACE_SPAN(eval_span, trace::Category::Dse, steps.eval_span,
                     {{"gen", gen}, {"batch", offspring.size()}});
      evaluate(offspring);
    }
    archive(offspring);

    std::vector<Individual> merged;
    merged.reserve(pop.size() + offspring.size());
    std::move(pop.begin(), pop.end(), std::back_inserter(merged));
    std::move(offspring.begin(), offspring.end(), std::back_inserter(merged));
    steps.select(merged);
    pop = std::move(merged);
    report_boundary(static_cast<std::uint64_t>(gen) + 1);
  }
  return result;
}

}  // namespace clr::moea
