#include "moea/operators.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace clr::moea {

std::size_t tournament(std::size_t population_size, std::size_t size,
                       const std::function<bool(std::size_t, std::size_t)>& better,
                       util::Rng& rng) {
  if (population_size == 0) throw std::invalid_argument("tournament: empty population");
  if (size == 0) throw std::invalid_argument("tournament: size must be >= 1");
  std::size_t champion = rng.index(population_size);
  for (std::size_t i = 1; i < size; ++i) {
    const std::size_t challenger = rng.index(population_size);
    if (better(challenger, champion)) champion = challenger;
  }
  return champion;
}

void uniform_crossover(std::vector<int>& a, std::vector<int>& b, double prob, util::Rng& rng) {
  if (a.size() != b.size()) throw std::invalid_argument("uniform_crossover: size mismatch");
  if (!rng.chance(prob)) return;
  constexpr util::Coin kHalf(0.5);
  util::Mt19937_64& engine = rng.engine();
  for (std::size_t i = 0; i < a.size();) {
    const std::span<const std::uint64_t> words = engine.peek();
    const std::size_t n = std::min(words.size(), a.size() - i);
    for (std::size_t k = 0; k < n; ++k, ++i) {
      const bool swap = kHalf.lands(words[k]);
      const int x = a[i];
      const int y = b[i];
      a[i] = swap ? y : x;
      b[i] = swap ? x : y;
    }
    engine.skip(n);
  }
}

void reset_mutation(const Problem& problem, std::vector<int>& genes, const util::Coin& mutation,
                    util::Rng& rng) {
  if (genes.size() != problem.num_genes()) {
    throw std::invalid_argument("reset_mutation: gene count mismatch");
  }
  if (!mutation.draws()) {
    if (!mutation.always()) return;
    for (std::size_t i = 0; i < genes.size(); ++i) {
      genes[i] = rng.uniform_int(0, problem.domain_size(i) - 1);
    }
    return;
  }
  util::Mt19937_64& engine = rng.engine();
  for (std::size_t i = 0; i < genes.size();) {
    const std::span<const std::uint64_t> words = engine.peek();
    const std::size_t n = std::min(words.size(), genes.size() - i);
    const auto end = words.begin() + static_cast<std::ptrdiff_t>(n);
    const auto hit =
        std::find_if(words.begin(), end, [&](std::uint64_t w) { return mutation.lands(w); });
    const auto passed = static_cast<std::size_t>(hit - words.begin());
    i += passed;
    if (hit == end) {
      engine.skip(n);
      continue;
    }
    engine.skip(passed + 1);
    genes[i] = rng.uniform_int(0, problem.domain_size(i) - 1);
    ++i;
  }
}

void reset_mutation(const Problem& problem, std::vector<int>& genes, double prob,
                    util::Rng& rng) {
  reset_mutation(problem, genes, util::Coin(prob), rng);
}

}  // namespace clr::moea
