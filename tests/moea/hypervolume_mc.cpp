#include "hypervolume_mc.hpp"

#include <stdexcept>

namespace clr::moea {

double hypervolume_mc(const std::vector<std::vector<double>>& points,
                      const std::vector<double>& lower, const std::vector<double>& ref,
                      std::size_t samples, util::Rng& rng) {
  if (points.empty() || samples == 0) return 0.0;
  const std::size_t dim = ref.size();
  if (lower.size() != dim) throw std::invalid_argument("hypervolume_mc: bound dim mismatch");
  double box = 1.0;
  for (std::size_t k = 0; k < dim; ++k) {
    if (lower[k] >= ref[k]) return 0.0;
    box *= ref[k] - lower[k];
  }
  std::size_t hits = 0;
  std::vector<double> x(dim);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t k = 0; k < dim; ++k) x[k] = rng.uniform(lower[k], ref[k]);
    for (const auto& p : points) {
      bool dominated = true;
      for (std::size_t k = 0; k < dim; ++k) {
        if (p[k] > x[k]) {
          dominated = false;
          break;
        }
      }
      if (dominated) {
        ++hits;
        break;
      }
    }
  }
  return box * static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace clr::moea
