// Differential tests of the GA bookkeeping against the oracles kept in
// reference_operators.*: uniform_crossover and reset_mutation read buffered
// engine words and compare them with a Coin's integer threshold, and
// non_dominated_sort peels fronts off a domination bitset. Each must do
// exactly what the per-gene chance loops and the per-member-list sort did:
// the same genes, the same engine state after every call, the same fronts in
// the same order and the same ranks (DESIGN.md §5.5, §5.6).

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "moea/nsga2.hpp"
#include "moea/operators.hpp"
#include "reference_operators.hpp"

namespace clr::moea {
namespace {

/// `n` genes whose domains cycle through small, odd and huge sizes.
class MixedDomains : public Problem {
 public:
  explicit MixedDomains(std::size_t n) : n_(n) {}
  std::size_t num_genes() const override { return n_; }
  int domain_size(std::size_t locus) const override {
    constexpr int kDomains[] = {1, 2, 3, 7, 1000, INT_MAX};
    return kDomains[locus % 6];
  }
  std::size_t num_objectives() const override { return 1; }
  Evaluation evaluate(const std::vector<int>&) const override { return {{0.0}, 0.0}; }

 private:
  std::size_t n_;
};

const std::size_t kLengths[] = {0, 1, 311, 312, 313, 1000};
const std::size_t kPositions[] = {0, 1, 155, 311, 312};

std::vector<double> probabilities() {
  return {-0.1, 0.0, std::numeric_limits<double>::quiet_NaN(), 1e-300, 0.03, 0.1, 0.5, 0.7,
          1.0 - 0x1p-54, 1.0, 1.5};
}

/// An engine state whose next output is word `pos` of its buffer (312: the
/// next draw refills first).
std::string state_at(std::uint64_t seed, std::size_t pos) {
  const std::string text = util::Rng(seed).save_state();
  return text.substr(0, text.rfind(' ') + 1) + std::to_string(pos);
}

std::string where(std::size_t len, std::size_t pos, double p, int call) {
  return "length " + std::to_string(len) + " position " + std::to_string(pos) + " p " +
         std::to_string(p) + " call " + std::to_string(call);
}

TEST(OperatorDifferential, UniformCrossoverDrawsWhatPerGeneChanceDraws) {
  for (const std::size_t len : kLengths) {
    for (const std::size_t pos : kPositions) {
      for (const double p : probabilities()) {
        util::Rng ours(1);
        util::Rng ref(1);
        ours.restore_state(state_at(len + 17 * pos, pos));
        ref.restore_state(state_at(len + 17 * pos, pos));
        std::vector<int> a(len), b(len);
        for (std::size_t i = 0; i < len; ++i) {
          a[i] = static_cast<int>(i);
          b[i] = -static_cast<int>(i) - 1;
        }
        std::vector<int> ra = a, rb = b;
        for (int call = 0; call < 3; ++call) {
          uniform_crossover(a, b, p, ours);
          reference::uniform_crossover(ra, rb, p, ref);
          ASSERT_EQ(a, ra) << where(len, pos, p, call);
          ASSERT_EQ(b, rb) << where(len, pos, p, call);
          ASSERT_EQ(ours.save_state(), ref.save_state()) << where(len, pos, p, call);
        }
      }
    }
  }
}

TEST(OperatorDifferential, ResetMutationDrawsWhatPerGeneChanceDraws) {
  for (const std::size_t len : kLengths) {
    const MixedDomains problem(len);
    for (const std::size_t pos : kPositions) {
      for (const double p : probabilities()) {
        util::Rng ours(1);
        util::Rng ref(1);
        ours.restore_state(state_at(3 * len + pos, pos));
        ref.restore_state(state_at(3 * len + pos, pos));
        std::vector<int> genes(len, -1);
        std::vector<int> ref_genes = genes;
        const util::Coin coin(p);
        for (int call = 0; call < 3; ++call) {
          // The GA's Coin overload, then the per-call double one.
          if (call == 1) {
            reset_mutation(problem, genes, p, ours);
          } else {
            reset_mutation(problem, genes, coin, ours);
          }
          reference::reset_mutation(problem, ref_genes, p, ref);
          ASSERT_EQ(genes, ref_genes) << where(len, pos, p, call);
          ASSERT_EQ(ours.save_state(), ref.save_state()) << where(len, pos, p, call);
        }
      }
    }
  }
}

/// A population that exercises every branch of constrained dominance:
/// infeasible members (some with equal violations, a few NaN), duplicate
/// objective vectors from a small grid, and NaN objectives.
std::vector<Individual> fuzz_population(std::size_t n, std::size_t objectives, util::Rng& rng) {
  std::vector<Individual> pop(n);
  for (Individual& ind : pop) {
    for (std::size_t k = 0; k < objectives; ++k) {
      ind.eval.objectives.push_back(rng.chance(0.05) ? std::nan("")
                                                     : static_cast<double>(rng.uniform_int(0, 5)));
    }
    if (rng.chance(0.3)) {
      ind.eval.violation = rng.chance(0.1) ? std::nan("") : 0.5 * rng.uniform_int(1, 4);
    }
    ind.rank = -7;  // members left out of every front keep it
  }
  return pop;
}

TEST(NonDominatedSortDifferential, BitsetSortKeepsFrontsTheirOrderAndRanks) {
  util::Rng rng(2024);
  for (const std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 128u, 129u}) {
    for (const std::size_t objectives : {1u, 2u, 3u}) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<Individual> ours = fuzz_population(n, objectives, rng);
        std::vector<Individual> ref = ours;
        const auto fronts = non_dominated_sort(ours);
        const auto ref_fronts = reference::non_dominated_sort(ref);
        const std::string at = std::to_string(n) + " members, " + std::to_string(objectives) +
                               " objectives, trial " + std::to_string(trial);
        ASSERT_EQ(fronts, ref_fronts) << at;
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(ours[i].rank, ref[i].rank) << at;
      }
    }
  }
}

TEST(NonDominatedSortDifferential, MismatchedFeasibleDimensionsThrowLikeTheReference) {
  std::vector<Individual> pop(2);
  pop[0].eval.objectives = {1.0, 2.0};
  pop[1].eval.objectives = {1.0};
  std::vector<Individual> ref = pop;
  EXPECT_THROW(non_dominated_sort(pop), std::invalid_argument);
  EXPECT_THROW(reference::non_dominated_sort(ref), std::invalid_argument);
  pop[1].eval.violation = 1.0;  // an infeasible member's objectives are never compared
  ref[1].eval.violation = 1.0;
  EXPECT_EQ(non_dominated_sort(pop), reference::non_dominated_sort(ref));
}

}  // namespace
}  // namespace clr::moea
