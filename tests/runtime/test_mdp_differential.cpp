// Differential test of the MDP solvers' row-expectation cache (DESIGN.md
// §5.14): rt::solve_value_iteration, rt::solve_policy_iteration and
// rt::solve_finite_horizon must equal the per-(state, action) oracle in
// reference_mdp.cpp bit for bit — value, policy, iterations, residual and
// converged — on fuzzed MDPs in four row shapes (one row per (s, a); rows
// shared by action; production-shaped rows keyed by (bin, a) with the
// zero-probability entries dropped; a state listed twice in one row), with
// and without action masks, in both sweep orders, at gamma 0, and with a
// sweep budget cut short. build_mdp_table is checked the same way on the
// production MDP it assembles. The cache may only ever sum fewer rows.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference_mdp.hpp"
#include "runtime/mdp.hpp"
#include "runtime/mdp_policy.hpp"

namespace clr::rt {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_values(const std::vector<double>& got, const std::vector<double>& want,
                   const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(bits(got[s]), bits(want[s])) << where << " state " << s;
  }
}

void expect_same(const MdpSolution& got, const MdpSolution& want, const std::string& where) {
  EXPECT_EQ(got.policy, want.policy) << where;
  expect_values(got.value, want.value, where);
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(bits(got.residual), bits(want.residual)) << where;
  EXPECT_EQ(got.converged, want.converged) << where;
  EXPECT_LE(got.rows_summed, want.rows_summed) << where;
}

enum class Shape { PerStateAction, PerAction, BinAction, Duplicates };

const char* name(Shape shape) {
  switch (shape) {
    case Shape::PerStateAction: return "per-(s,a)";
    case Shape::PerAction: return "per-action";
    case Shape::BinAction: return "per-(bin,a)";
    case Shape::Duplicates: return "duplicates";
  }
  return "?";
}

/// A stochastic row over `targets`, each kept with probability `density`
/// (at least one always), in a shuffled order.
MdpRow random_row(util::Rng& rng, const std::vector<std::uint32_t>& targets, double density) {
  MdpRow row;
  double sum = 0.0;
  for (const std::uint32_t next : targets) {
    if (!row.empty() && !rng.chance(density)) continue;
    const double w = rng.uniform(0.01, 1.0);
    row.emplace_back(next, w);
    sum += w;
  }
  for (auto& e : row) e.second /= sum;
  for (std::size_t i = row.size(); i > 1; --i) std::swap(row[i - 1], row[rng.index(i)]);
  return row;
}

/// A fuzzed MDP of the given row shape. Rewards are continuous or on a
/// three-value grid (exact Q ties, so the argmax tie-break is compared too);
/// about a third of the instances carry an action mask.
Mdp fuzz_mdp(util::Rng& rng, Shape shape) {
  Mdp mdp;
  std::size_t bins = 1;
  if (shape == Shape::BinAction) {
    bins = 1 + rng.index(6);
    mdp.num_actions = 1 + rng.index(8);
    mdp.num_states = bins * mdp.num_actions;
  } else {
    mdp.num_states = 1 + rng.index(30);
    mdp.num_actions = 1 + rng.index(6);
  }
  const std::size_t S = mdp.num_states;
  const std::size_t A = mdp.num_actions;
  std::vector<std::uint32_t> all(S);
  for (std::size_t s = 0; s < S; ++s) all[s] = static_cast<std::uint32_t>(s);
  const double density = rng.uniform(0.1, 1.0);

  mdp.row_of.resize(S * A);
  switch (shape) {
    case Shape::PerStateAction:
      for (std::size_t sa = 0; sa < S * A; ++sa) {
        mdp.rows.push_back(random_row(rng, all, density));
        mdp.row_of[sa] = static_cast<std::uint32_t>(sa);
      }
      break;
    case Shape::PerAction:
      for (std::size_t a = 0; a < A; ++a) mdp.rows.push_back(random_row(rng, all, density));
      for (std::size_t sa = 0; sa < S * A; ++sa) {
        mdp.row_of[sa] = static_cast<std::uint32_t>(sa % A);
      }
      break;
    case Shape::BinAction: {
      // state = bin * A + current; row (bin, a) moves to (next bin, a) with a
      // bin kernel that has zero entries, which are dropped as
      // build_mdp_table drops them.
      std::vector<double> kernel(bins * bins);
      for (std::size_t b = 0; b < bins; ++b) {
        double sum = 0.0;
        for (std::size_t nb = 0; nb < bins; ++nb) {
          const bool zero = nb != b && rng.chance(0.4);
          kernel[b * bins + nb] = zero ? 0.0 : rng.uniform(0.01, 1.0);
          sum += kernel[b * bins + nb];
        }
        for (std::size_t nb = 0; nb < bins; ++nb) kernel[b * bins + nb] /= sum;
      }
      for (std::size_t b = 0; b < bins; ++b) {
        for (std::size_t a = 0; a < A; ++a) {
          MdpRow row;
          for (std::size_t nb = 0; nb < bins; ++nb) {
            const double p = kernel[b * bins + nb];
            if (p <= 0.0) continue;
            row.emplace_back(static_cast<std::uint32_t>(nb * A + a), p);
          }
          mdp.rows.push_back(std::move(row));
        }
      }
      for (std::size_t s = 0; s < S; ++s) {
        for (std::size_t a = 0; a < A; ++a) {
          mdp.row_of[s * A + a] = static_cast<std::uint32_t>((s / A) * A + a);
        }
      }
      break;
    }
    case Shape::Duplicates: {
      // Fewer rows than (s, a) pairs, each listing one state twice (split
      // mass), picked by (s, a) at random.
      const std::size_t distinct = 1 + rng.index(S * A);
      for (std::size_t r = 0; r < distinct; ++r) {
        MdpRow row = random_row(rng, all, density);
        const std::size_t i = rng.index(row.size());
        const double half = row[i].second * 0.5;
        row[i].second -= half;
        row.insert(row.begin() + static_cast<std::ptrdiff_t>(rng.index(row.size() + 1)),
                   {row[i].first, half});
        mdp.rows.push_back(std::move(row));
      }
      for (std::size_t sa = 0; sa < S * A; ++sa) {
        mdp.row_of[sa] = static_cast<std::uint32_t>(rng.index(distinct));
      }
      break;
    }
  }

  const bool grid = rng.chance(0.3);
  mdp.reward.resize(S * A);
  for (double& r : mdp.reward) {
    r = grid ? 0.5 * static_cast<double>(rng.index(3)) : rng.uniform(-1.0, 1.0);
  }
  if (A > 1 && rng.chance(0.33)) {
    mdp.allowed.assign(S * A, 1);
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t keep = rng.index(A);
      for (std::size_t a = 0; a < A; ++a) {
        if (a != keep && rng.chance(0.4)) mdp.allowed[s * A + a] = 0;
      }
    }
  }
  mdp.validate();
  return mdp;
}

constexpr Shape kShapes[] = {Shape::PerStateAction, Shape::PerAction, Shape::BinAction,
                             Shape::Duplicates};

TEST(MdpDifferential, ValueIterationMatchesTheReferenceBitwise) {
  util::Rng rng(0x5EED0001);
  const double gammas[] = {0.0, 0.5, 0.9, 0.97};
  int unconverged = 0;
  for (int instance = 0; instance < 240; ++instance) {
    const Shape shape = kShapes[instance % 4];
    const Mdp mdp = fuzz_mdp(rng, shape);
    ValueIterationOptions opts;
    opts.gamma = gammas[(instance / 4) % 4];
    opts.order = (instance / 16) % 2 == 0 ? SweepOrder::Forward : SweepOrder::Reverse;
    // Every fifth instance stops after a few sweeps, unconverged.
    if (instance % 5 == 4) opts.max_sweeps = 1 + rng.index(4);
    const std::string where = std::string(name(shape)) + " instance " +
                              std::to_string(instance) + " gamma " +
                              std::to_string(opts.gamma) + " max_sweeps " +
                              std::to_string(opts.max_sweeps);
    const MdpSolution want = reference::solve_value_iteration(mdp, opts);
    expect_same(solve_value_iteration(mdp, opts), want, where);
    unconverged += want.converged ? 0 : 1;
  }
  EXPECT_GE(unconverged, 24) << "the cut-short budgets must leave runs unconverged";
}

TEST(MdpDifferential, PolicyIterationMatchesTheReferenceBitwise) {
  util::Rng rng(0x5EED0002);
  const double gammas[] = {0.0, 0.5, 0.9, 0.99};
  for (int instance = 0; instance < 160; ++instance) {
    const Shape shape = kShapes[instance % 4];
    const Mdp mdp = fuzz_mdp(rng, shape);
    const double gamma = gammas[(instance / 4) % 4];
    // A round budget of 1 leaves most instances unconverged.
    const std::size_t rounds = instance % 7 == 6 ? 1 : 1000;
    const std::string where = std::string(name(shape)) + " instance " +
                              std::to_string(instance) + " gamma " + std::to_string(gamma);
    expect_same(solve_policy_iteration(mdp, gamma, rounds),
                reference::solve_policy_iteration(mdp, gamma, rounds), where);
  }
}

TEST(MdpDifferential, FiniteHorizonMatchesTheReferenceBitwise) {
  util::Rng rng(0x5EED0003);
  const double gammas[] = {1.0, 0.9, 0.0};
  for (int instance = 0; instance < 120; ++instance) {
    const Shape shape = kShapes[instance % 4];
    const Mdp mdp = fuzz_mdp(rng, shape);
    const double gamma = gammas[(instance / 4) % 3];
    const std::size_t horizon = rng.index(9);
    const std::string where = std::string(name(shape)) + " instance " +
                              std::to_string(instance) + " horizon " + std::to_string(horizon);
    const FiniteHorizonSolution got = solve_finite_horizon(mdp, horizon, gamma);
    const FiniteHorizonSolution want = reference::solve_finite_horizon(mdp, horizon, gamma);
    EXPECT_EQ(got.policy, want.policy) << where;
    expect_values(got.value, want.value, where);
  }
}

/// A fuzzed database whose points use one to three of four PEs, so the
/// fault hazard differs per action.
dse::DesignDb fuzz_db(util::Rng& rng, std::size_t n) {
  dse::DesignDb db;
  for (std::size_t i = 0; i < n; ++i) {
    dse::DesignPoint p;
    p.makespan = rng.uniform(50.0, 150.0);
    p.func_rel = rng.uniform(0.9, 1.0);
    p.energy = rng.uniform(10.0, 100.0);
    p.config.tasks.resize(1 + rng.index(3));
    for (auto& task : p.config.tasks) task.pe = static_cast<plat::PeId>(rng.index(4));
    db.add(std::move(p));
  }
  return db;
}

TEST(MdpDifferential, BuildMdpTableMatchesTheReferenceSolveOfItsMdp) {
  // A 3 x 7 bin grid (non-square, so a swapped bin index shows), every pRC
  // extreme and the middle, faults off and on, and one case whose sweep
  // budget forces the policy-iteration fallback.
  util::Rng rng(0x5EED0004);
  const dse::DesignDb db = fuzz_db(rng, 12);
  const std::size_t n = db.size();
  std::vector<double> costs(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) costs[i * n + j] = i == j ? 0.0 : rng.uniform(0.0, 20.0);
  }
  const DrcMatrix drc(n, std::move(costs));
  const dse::MetricRanges ranges = db.ranges();
  const QosProcessParams qos;
  MdpPolicyParams params;
  params.makespan_bins = 3;
  params.func_rel_bins = 7;

  flt::FaultParams faulty;
  faulty.transient_rate = 1e-3;
  faulty.pe_mtbf = 2e3;
  int fallbacks = 0;
  for (const double p_rc : {0.0, 0.5, 1.0}) {
    for (const bool faults_on : {false, true}) {
      for (const std::size_t max_sweeps : {params.max_sweeps, std::size_t{3}}) {
        if (max_sweeps == 3 && (p_rc != 0.5 || !faults_on)) continue;
        MdpPolicyParams p = params;
        p.max_sweeps = max_sweeps;
        const flt::FaultParams faults = faults_on ? faulty : flt::FaultParams{};
        const std::string where = "pRC " + std::to_string(p_rc) + " faults " +
                                  std::to_string(faults_on) + " max_sweeps " +
                                  std::to_string(max_sweeps);
        const Mdp mdp = build_selection_mdp(db, drc, ranges, p_rc, qos, faults, p);
        ASSERT_EQ(mdp.num_states, 21 * n) << where;
        ValueIterationOptions opts;
        opts.gamma = p.gamma;
        opts.tolerance = p.tolerance;
        opts.max_sweeps = p.max_sweeps;
        MdpSolution want = reference::solve_value_iteration(mdp, opts);
        const MdpSolution vi = solve_value_iteration(mdp, opts);
        expect_same(vi, want, where);
        // The production shape is what the cache is for: far fewer sums.
        EXPECT_LT(vi.rows_summed * 4, want.rows_summed) << where;
        if (!want.converged) {
          ++fallbacks;
          want = reference::solve_policy_iteration(mdp, p.gamma);
        }
        const MdpTable table = build_mdp_table(db, drc, ranges, p_rc, qos, faults, p);
        EXPECT_EQ(table.policy, want.policy) << where;
        expect_values(table.values, want.value, where);
      }
    }
  }
  EXPECT_EQ(fallbacks, 1);
}

}  // namespace
}  // namespace clr::rt
