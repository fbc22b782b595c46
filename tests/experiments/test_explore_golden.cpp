// Golden pin of the design-time GA stream at the scale of perfbench's
// `explore` workload: BaseD then ReD on the 40- and 90-task apps of app seed
// 1, population 64 over 60 generations, one thread, the flow's Rng seeded
// with 1 ^ 0xD5E (what `clrtool explore --seed 1` uses). Every stored point
// of both databases is folded into an FNV-1a digest, and each flow's
// schedule-kernel runs and schedule-memo lookups are pinned beside it. A
// change to the GA operators, the selection, the random streams or the
// genome memo that moves one draw, one survivor or one memo count fails here.
//
// The bytes are folded in perfbench's order (the QoS spec, then per database
// its size and each point's assignments, metrics and extra flag), so the
// digest of both flows together is the `explore` digest that
// perfbench/digests.json records at seed 1.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "common/hash.hpp"
#include "dse/design_time.hpp"
#include "experiments/app.hpp"
#include "experiments/flow.hpp"

namespace clr::exp {
namespace {

struct FlowPins {
  std::size_t tasks;
  std::uint64_t digest;
  std::uint64_t schedule_runs;
  std::uint64_t memo_lookups;
};

constexpr std::uint64_t kAppSeed = 1;
constexpr std::uint64_t kFlowSeed = 1 ^ 0xD5EULL;

void fold_db(std::uint64_t& h, const dse::DesignDb& db) {
  util::fnv1a_value<std::size_t>(h, db.size());
  for (const dse::DesignPoint& p : db.points()) {
    for (const sched::TaskAssignment& t : p.config.tasks) {
      util::fnv1a_value(h, t.pe);
      util::fnv1a_value(h, t.impl_index);
      util::fnv1a_value(h, t.clr_index);
      util::fnv1a_value(h, t.priority);
    }
    util::fnv1a_value(h, p.energy);
    util::fnv1a_value(h, p.makespan);
    util::fnv1a_value(h, p.func_rel);
    util::fnv1a_value(h, p.extra);
  }
}

/// Runs one app's flow exactly as perfbench's `explore` does, folding its
/// outputs into `combined` and into a digest of its own.
FlowPins run_flow(std::size_t tasks, std::uint64_t& combined) {
  FlowParams params;
  params.dse.base_ga.population = 64;
  params.dse.base_ga.generations = 60;
  params.dse.threads = 1;
  const auto app = make_synthetic_app(tasks, kAppSeed);
  util::Rng rng(kFlowSeed);
  const dse::QosSpec spec = derive_spec(app->context(), params.mode, params.spec_samples,
                                        params.makespan_quantile, params.func_rel_quantile, rng);
  const dse::MappingProblem problem(app->context(), spec, params.mode);
  const recfg::ReconfigModel reconfig(app->platform(), app->impls());
  const dse::DesignTimeDse dse(problem, reconfig, params.dse);
  const dse::DesignDb based = dse.run_base(rng);
  const dse::DesignDb red = dse.run_red(based, rng);

  std::uint64_t own = util::kFnv1aBasis;
  for (std::uint64_t* h : {&combined, &own}) {
    util::fnv1a_value(*h, spec.max_makespan);
    util::fnv1a_value(*h, spec.min_func_rel);
    fold_db(*h, based);
    fold_db(*h, red);
  }
  const auto& memo = problem.schedule_cache();
  return {tasks, own, problem.schedule_runs(), memo.hits() + memo.misses()};
}

TEST(ExploreGolden, PerfbenchInputsReproduceTheirRecordedPointsAndMemoCounts) {
  // Recorded with the per-gene double coins, the pairwise NSGA-II sort and a
  // memo that hashed each genome on every lookup and store.
  const FlowPins kRecorded[] = {
      {40, 0x4bbd4960375af976ULL, 29403, 30273},
      {90, 0x8c72c8a9b94a3e08ULL, 29835, 30340},
  };
  constexpr std::uint64_t kRecordedCombined = 0xb868894b4b03b4dfULL;  // perfbench `explore`

  std::uint64_t combined = util::kFnv1aBasis;
  for (const FlowPins& want : kRecorded) {
    const FlowPins got = run_flow(want.tasks, combined);
    EXPECT_EQ(got.digest, want.digest)
        << want.tasks << " tasks: got 0x" << std::hex << got.digest;
    EXPECT_EQ(got.schedule_runs, want.schedule_runs) << want.tasks << " tasks";
    EXPECT_EQ(got.memo_lookups, want.memo_lookups) << want.tasks << " tasks";
  }
  EXPECT_EQ(combined, kRecordedCombined) << "got 0x" << std::hex << combined;
}

}  // namespace
}  // namespace clr::exp
