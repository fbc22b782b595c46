// Differential test of the run-time decision path (DESIGN.md §5.16): the
// DesignDb feasibility scan, least_violating, and every policy decision —
// uRA, AuRA (select / peek / select_initial), Baseline and MDP — must equal
// the reference oracle in reference_policy.cpp, field for field and doubles
// bitwise, on fuzzed databases and cost tables, with and without an alive
// mask — and so must uRA and AuRA backed by a DecisionTable, and the MDP's
// value-order walk on tables shaped to meet each case it is sensitive to.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "faults/fault_model.hpp"
#include "reference_policy.hpp"
#include "runtime/mdp_policy.hpp"
#include "runtime/policy.hpp"

namespace clr::rt {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same(const Decision& got, const Decision& want, const std::string& where) {
  EXPECT_EQ(got.point, want.point) << where;
  EXPECT_EQ(got.feasible_set_empty, want.feasible_set_empty) << where;
  EXPECT_EQ(bits(got.drc), bits(want.drc)) << where;
  EXPECT_EQ(bits(got.reward), bits(want.reward)) << where;
}

/// Database sizes on both sides of the alive mask's 64-bit words, plus the
/// single-point database. Odd-numbered cases draw a size in [1, 200].
constexpr std::size_t kSizes[] = {1, 2, 3, 63, 64, 65, 127, 128, 129, 200};

/// A value on a 3-step grid over [lo, hi] (duplicates, exact ties) or a
/// continuous draw.
double draw(util::Rng& rng, bool grid, double lo, double hi) {
  if (grid) return lo + (hi - lo) * 0.5 * static_cast<double>(rng.index(3));
  return rng.uniform(lo, hi);
}

struct Case {
  Case() = default;
  Case(const Case&) = delete;  // `health` points at `db`: never copied or moved
  Case& operator=(const Case&) = delete;

  bool grid = false;  ///< metrics and values on a grid
  dse::DesignDb db;
  std::optional<DrcMatrix> drc;
  std::optional<flt::PlatformHealth> health;  ///< engaged: the masked case
  double p_rc = 0.5;
  double gamma = 0.5;
  double guard = 0.0;
};

void make_case(Case& c, util::Rng& rng, std::size_t index) {
  const std::size_t n =
      index % 2 == 0 ? kSizes[(index / 2) % std::size(kSizes)] : 1 + rng.index(200);
  c.grid = rng.chance(0.5);
  for (std::size_t i = 0; i < n; ++i) {
    dse::DesignPoint p;
    p.makespan = draw(rng, c.grid, 50.0, 150.0);
    p.func_rel = draw(rng, c.grid, 0.9, 1.0);
    p.energy = draw(rng, c.grid, 10.0, 100.0);
    // One private PE per point: killing PEs then carves an arbitrary mask.
    p.config.tasks.resize(1);
    p.config.tasks[0].pe = static_cast<plat::PeId>(i);
    c.db.add(std::move(p));
  }
  // Every move free, a {0, 10, 20} grid (equal and zero-cost moves), or
  // continuous costs. Self moves are always free.
  const std::size_t cost_mode = rng.index(3);
  std::vector<double> costs(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && cost_mode != 0) costs[i * n + j] = draw(rng, cost_mode == 1, 0.0, 20.0);
    }
  }
  c.drc.emplace(n, std::move(costs));
  if (rng.chance(0.5)) {
    c.health.emplace(c.db, n);
    const std::size_t survivor = rng.index(n);
    const double kill = rng.uniform(0.0, 0.9);
    for (std::size_t pe = 0; pe < n; ++pe) {
      if (pe != survivor && rng.chance(kill)) c.health->kill_pe(static_cast<plat::PeId>(pe));
    }
  }
  constexpr double kGammas[] = {0.0, 0.5, 0.9};
  constexpr double kGuards[] = {0.0, 1e-3, 0.2};
  const std::size_t g = rng.index(4);
  const std::size_t b = rng.index(4);
  const std::size_t r = rng.index(4);
  c.gamma = g < 3 ? kGammas[g] : rng.uniform(0.0, 0.99);
  c.guard = b < 3 ? kGuards[b] : rng.uniform(0.0, 0.5);
  c.p_rc = r < 3 ? 0.5 * static_cast<double>(r) : rng.uniform(0.0, 1.0);
}

/// Random (valid) tabular policy over the case's database, in value order.
MdpTable random_table(util::Rng& rng, const Case& c) {
  MdpTable t;
  t.makespan_bins = static_cast<std::uint32_t>(1 + rng.index(4));
  t.func_rel_bins = static_cast<std::uint32_t>(1 + rng.index(4));
  t.num_points = c.db.size();
  t.gamma = 0.9;
  t.p_rc = c.p_rc;
  t.ranges = c.db.ranges();
  t.policy.resize(t.num_states());
  t.values.resize(t.num_states());
  for (auto& a : t.policy) a = static_cast<std::uint32_t>(rng.index(c.db.size()));
  for (auto& v : t.values) v = draw(rng, c.grid, -1.0, 1.0);
  order_mdp_table(t);
  return t;
}

/// Query kinds: 0 — the bound of the fastest alive point (usually a single
/// feasible point); 1 — tighter than every point (empty FEAS); otherwise a
/// random requirement around the database's box.
dse::QosSpec make_spec(util::Rng& rng, const Case& c, std::size_t kind) {
  const auto& s = c.db.makespans();
  const auto& f = c.db.func_rels();
  const auto r = c.db.ranges();
  if (kind == 0) {
    std::size_t best = c.db.size();
    for (std::size_t i = 0; i < c.db.size(); ++i) {
      if (c.health && !c.health->point_alive(i)) continue;
      if (best == c.db.size() || s[i] < s[best] || (s[i] == s[best] && f[i] > f[best])) best = i;
    }
    return dse::QosSpec{s[best], f[best]};
  }
  if (kind == 1) return dse::QosSpec{0.5 * r.makespan_min, r.func_rel_max + 0.01};
  return dse::QosSpec{rng.uniform(r.makespan_min - 5.0, r.makespan_max + 5.0),
                      rng.uniform(r.func_rel_min - 0.01, r.func_rel_max + 0.01)};
}

TEST(DecisionDifferential, EveryPolicyMatchesTheReferenceOracle) {
  constexpr std::size_t kCases = 600;
  constexpr std::size_t kQueries = 12;
  util::Rng rng(0xDEC1u);
  std::size_t masked = 0, empty = 0, single = 0, several = 0;
  for (std::size_t ci = 0; ci < kCases; ++ci) {
    Case c;
    make_case(c, rng, ci);
    const dse::DesignDb& db = c.db;
    const DrcMatrix& drc = *c.drc;
    const std::size_t n = db.size();
    const std::vector<bool>* mask = c.health ? &c.health->point_mask() : nullptr;
    masked += mask != nullptr;

    UraPolicy ura(db, drc, c.p_rc);
    AuraPolicy::Params ap;
    ap.gamma = c.gamma;
    ap.guard = c.guard;
    AuraPolicy aura(db, drc, c.p_rc, ap);
    std::vector<double> values(n);
    for (auto& v : values) v = draw(rng, c.grid, 0.0, 1.0);
    aura.set_values(values);
    BaselinePolicy baseline(db, drc);
    const MdpTable table = random_table(rng, c);
    MdpPolicy mdp(db, drc, table);
    if (c.health) {
      for (AdaptationPolicy* p : std::initializer_list<AdaptationPolicy*>{
               &ura, &aura, &baseline, &mdp}) {
        p->set_health(&*c.health);
      }
    }
    const reference::Ura oracle(db, drc, c.p_rc);

    std::vector<std::size_t> feas(n);
    for (std::size_t q = 0; q < kQueries; ++q) {
      const dse::QosSpec spec = make_spec(rng, c, q % 4);
      const std::size_t current = rng.index(n);
      const std::string where = "case " + std::to_string(ci) + " (n " + std::to_string(n) +
                                ") query " + std::to_string(q);

      const auto want_feas = reference::feasible_indices(db, spec, mask);
      const std::size_t m = db.feasible_into(spec, feas, mask);
      EXPECT_EQ(std::vector<std::size_t>(feas.begin(), feas.begin() + m), want_feas) << where;
      ++(want_feas.empty() ? empty : want_feas.size() == 1 ? single : several);
      EXPECT_EQ(db.least_violating(spec, mask), reference::least_violating(db, spec, mask))
          << where;
      EXPECT_EQ(bits(db.violation_of(current, spec)),
                bits(reference::violation_of(db, current, spec)))
          << where;

      const Decision ura_want = oracle.evaluate_and_pick(current, spec, mask, nullptr, 0.0, 0.0);
      expect_same(ura.select(current, spec), ura_want, where + " uRA select");
      expect_same(ura.peek(current, spec), ura_want, where + " uRA peek");

      // The learning agents are checked against their current values; the
      // episodes closed below move those values between queries.
      const Decision aura_want =
          oracle.evaluate_and_pick(current, spec, mask, &aura.values(), c.gamma, c.guard);
      expect_same(aura.peek(current, spec), aura_want, where + " AuRA peek");
      expect_same(aura.select_initial(current, spec), aura_want, where + " AuRA select_initial");
      expect_same(aura.select(current, spec), aura_want, where + " AuRA select");

      expect_same(baseline.select(current, spec),
                  reference::baseline_select(db, drc, current, spec, mask),
                  where + " Baseline select");

      const Decision mdp_want = reference::mdp_decide(db, drc, table, current, spec, mask);
      expect_same(mdp.select(current, spec), mdp_want, where + " MDP select");
      expect_same(mdp.peek(current, spec), mdp_want, where + " MDP peek");

      if (q % 4 == 3) aura.end_episode();
    }
    if (HasFailure()) return;  // the first diverging case is enough output
  }
  // The fuzz reached every regime it claims to cover.
  EXPECT_GE(masked, kCases / 4);
  EXPECT_GE(empty, kCases);
  EXPECT_GE(single, kCases / 2);
  EXPECT_GE(several, kCases);
}

TEST(DecisionDifferential, MdpValueOrderWalkMatchesTheReferenceOracle) {
  // Tables and masks shaped so that the tabular pick misses and the walk down
  // the bin's value order meets each situation it is sensitive to:
  //   0 — `current` ties the best usable value on a {0, 0.5, 1} grid, behind
  //       a lower-index point of that value and an unusable point above both;
  //   1 — the first point in value order is feasible but dead under the mask;
  //   2 — the first point is alive but infeasible, and the second is tied
  //       with it (same value, higher index);
  //   3 — every feasible point is dead: FEAS is empty under the mask.
  constexpr std::size_t kCases = 800;
  util::Rng rng(0x0DE5u);
  std::size_t reached[4] = {};
  for (std::size_t ci = 0; ci < kCases; ++ci) {
    Case c;
    make_case(c, rng, ci);
    const dse::DesignDb& db = c.db;
    const std::size_t n = db.size();
    const std::size_t kind = ci % 4;
    // A requirement that two stored points meet (the same point when n = 1).
    const std::size_t i = rng.index(n);
    const std::size_t j = rng.index(n);
    const dse::QosSpec spec{std::max(db.makespans()[i], db.makespans()[j]),
                            std::min(db.func_rels()[i], db.func_rels()[j])};
    std::vector<std::size_t> feas, infeas;
    for (std::size_t k = 0; k < n; ++k) {
      (db.point(k).feasible_for(spec) ? feas : infeas).push_back(k);
    }

    MdpTable table = random_table(rng, c);
    const std::size_t base = table.bin_of(spec) * n;
    double* values = table.values.data() + base;
    c.health.emplace(db, n);  // each point owns PE k, so the mask is ours to carve
    std::size_t current = rng.index(n);
    std::size_t want_point = n;  // the pick the scenario forces, when it forces one
    if (kind == 0) {
      if (feas.size() < 2) continue;
      for (std::size_t k = 0; k < n; ++k) values[k] = 0.5 * static_cast<double>(rng.index(3));
      current = feas[1 + rng.index(feas.size() - 1)];
      values[feas[0]] = values[current] = 1.0;
      if (!infeas.empty()) values[infeas[rng.index(infeas.size())]] = 2.0;
      want_point = current;
    } else if (kind == 1) {
      if (feas.size() < 2) continue;
      const std::size_t dead = feas[rng.index(feas.size())];
      values[dead] = 2.0;
      c.health->kill_pe(static_cast<plat::PeId>(dead));
    } else if (kind == 2) {
      const std::size_t second = feas.empty() ? 0 : feas.back();
      if (infeas.empty() || infeas.front() > second) continue;
      const std::size_t first = infeas.front();
      values[first] = values[second] = 2.0;
      want_point = second;
    } else {
      if (feas.empty() || infeas.empty()) continue;
      for (std::size_t k : feas) c.health->kill_pe(static_cast<plat::PeId>(k));
    }
    const std::vector<bool>& mask = c.health->point_mask();
    std::vector<std::size_t> unusable;
    for (std::size_t k = 0; k < n; ++k) {
      if (!mask[k] || !db.point(k).feasible_for(spec)) unusable.push_back(k);
    }
    if (unusable.empty()) continue;
    const std::size_t miss = unusable[rng.index(unusable.size())];
    table.policy[base + current] = static_cast<std::uint32_t>(miss);
    order_mdp_table(table);

    MdpPolicy mdp(db, *c.drc, table);
    mdp.set_health(&*c.health);
    const std::string where = "case " + std::to_string(ci) + " (n " + std::to_string(n) +
                              ", kind " + std::to_string(kind) + ")";
    const Decision want = reference::mdp_decide(db, *c.drc, table, current, spec, &mask);
    expect_same(mdp.select(current, spec), want, where + " MDP select");
    expect_same(mdp.peek(current, spec), want, where + " MDP peek");
    // The scenario is the one claimed.
    if (want_point != n) {
      EXPECT_EQ(want.point, want_point) << where;
    }
    EXPECT_EQ(want.feasible_set_empty, kind == 3) << where;
    ++reached[kind];
    if (HasFailure()) return;
  }
  for (std::size_t kind = 0; kind < 4; ++kind) {
    EXPECT_GE(reached[kind], kCases / 16) << "kind " << kind;
  }
}

TEST(DecisionDifferential, OrderingRejectsNonFiniteValuesAndOutOfRangeActions) {
  MdpTable t;
  t.makespan_bins = 1;
  t.func_rel_bins = 2;
  t.num_points = 3;
  t.policy = {0, 1, 2, 2, 1, 0};
  t.values = {0.5, -1.0, 0.5, 2.0, 0.0, 2.0};
  order_mdp_table(t);
  EXPECT_EQ(t.value_order, (std::vector<std::uint32_t>{0, 2, 1, 0, 2, 1}));

  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    MdpTable u = t;
    u.values[4] = bad;
    try {
      order_mdp_table(u);
      ADD_FAILURE() << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "order_mdp_table: state 4: non-finite value");
    }
  }
  MdpTable u = t;
  u.policy[5] = 3;
  EXPECT_THROW(order_mdp_table(u), std::invalid_argument);
  u = t;
  u.values.pop_back();
  EXPECT_THROW(order_mdp_table(u), std::invalid_argument);

  // A policy reads only tables that carry their order.
  dse::DesignDb db;
  for (int k = 0; k < 3; ++k) {
    dse::DesignPoint p;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = k;
    db.add(std::move(p));
  }
  const DrcMatrix drc(3, std::vector<double>(9, 0.0));
  u = t;
  u.value_order.clear();
  EXPECT_THROW(MdpPolicy(db, drc, u), std::invalid_argument);
  EXPECT_NO_THROW(MdpPolicy(db, drc, t));
}

TEST(DecisionDifferential, TableBackedUraAndAuraMatchTheReferenceOracle) {
  // One DecisionTable serves a uRA and an AuRA policy; each case replays its
  // spec sequence three times, so the later passes hit entries the first
  // filled, while AuRA's values move at every episode end in between.
  constexpr std::size_t kCases = 300;
  constexpr std::size_t kQueries = 16;
  constexpr std::size_t kReplays = 3;
  util::Rng rng(0x7AB1Eu);
  DecisionTable::Counters total;
  for (std::size_t ci = 0; ci < kCases; ++ci) {
    Case c;
    make_case(c, rng, ci);
    const dse::DesignDb& db = c.db;
    const DrcMatrix& drc = *c.drc;
    const std::size_t n = db.size();
    // Masks: none, every point alive (the table is used), one dead point
    // (the table is bypassed; a single point stays alive). The case's own
    // random mask is not used.
    std::optional<flt::PlatformHealth> health;
    const bool one_dead = ci % 3 == 2 && n > 1;
    if (ci % 3 != 0) {
      health.emplace(db, n);
      if (one_dead) health->kill_pe(static_cast<plat::PeId>(rng.index(n)));
    }
    const std::vector<bool>* mask = health ? &health->point_mask() : nullptr;
    constexpr double kGuards[] = {0.0, 1e-3, 0.2};
    c.gamma = ci % 2 == 0 ? 0.0 : 0.5;
    c.guard = kGuards[(ci / 2) % 3];

    DecisionTable table(db, drc, c.p_rc, c.guard);
    UraPolicy ura(db, drc, c.p_rc, &table);
    AuraPolicy::Params ap;
    ap.gamma = c.gamma;
    ap.guard = c.guard;
    AuraPolicy aura(db, drc, c.p_rc, ap, &table);
    std::vector<double> values(n);
    for (auto& v : values) v = draw(rng, c.grid, 0.0, 1.0);
    aura.set_values(values);
    if (health) {
      ura.set_health(&*health);
      aura.set_health(&*health);
    }
    const reference::Ura oracle(db, drc, c.p_rc);

    // Every fourth spec sits exactly on a stored point's metrics, which
    // ties it with every point of equal makespan or func_rel.
    std::vector<dse::QosSpec> specs;
    std::vector<std::size_t> currents;
    for (std::size_t q = 0; q < kQueries; ++q) {
      const std::size_t on = rng.index(n);
      specs.push_back(q % 4 == 3 ? dse::QosSpec{db.makespans()[on], db.func_rels()[on]}
                                 : make_spec(rng, c, q % 4));
      currents.push_back(rng.index(n));
    }
    for (std::size_t pass = 0; pass < kReplays; ++pass) {
      for (std::size_t q = 0; q < kQueries; ++q) {
        const dse::QosSpec& spec = specs[q];
        const std::size_t current = currents[q];
        const std::string where = "case " + std::to_string(ci) + " (n " + std::to_string(n) +
                                  ") pass " + std::to_string(pass) + " query " +
                                  std::to_string(q);
        const Decision ura_want = oracle.evaluate_and_pick(current, spec, mask, nullptr, 0.0, 0.0);
        expect_same(ura.select(current, spec), ura_want, where + " uRA select");
        expect_same(ura.peek(current, spec), ura_want, where + " uRA peek");
        const Decision aura_want =
            oracle.evaluate_and_pick(current, spec, mask, &aura.values(), c.gamma, c.guard);
        expect_same(aura.peek(current, spec), aura_want, where + " AuRA peek");
        expect_same(aura.select_initial(current, spec), aura_want,
                    where + " AuRA select_initial");
        expect_same(aura.select(current, spec), aura_want, where + " AuRA select");
        if (q % 4 == 3) aura.end_episode();
      }
    }
    const DecisionTable::Counters& t = table.counters();
    EXPECT_EQ(t.hits + t.fills + t.empty + t.band_ties, t.lookups) << "case " << ci;
    if (one_dead) {
      EXPECT_EQ(t.lookups, 0u) << "case " << ci << ": a dead point bypasses the table";
    }
    total.merge(t);
    if (HasFailure()) return;
  }
  // The replays reached every kind of lookup.
  EXPECT_GT(total.hits, total.fills);
  EXPECT_GT(total.fills, 0u);
  EXPECT_GT(total.empty, 0u);
  EXPECT_GT(total.band_ties, 0u);
}

TEST(DecisionDifferential, ScanRejectsAShortOutputBuffer) {
  dse::DesignDb db;
  for (int i = 0; i < 3; ++i) {
    dse::DesignPoint p;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = i;
    db.add(std::move(p));
  }
  std::vector<std::size_t> out(2);
  EXPECT_THROW((void)db.feasible_into(dse::QosSpec{1.0, 0.0}, out), std::invalid_argument);
}

}  // namespace
}  // namespace clr::rt
