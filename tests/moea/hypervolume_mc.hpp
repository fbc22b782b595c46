#pragma once
// Monte-Carlo hypervolume estimator: the oracle the exact 2-D/3-D routines
// of moea/hypervolume.hpp are checked against (test_hypervolume.cpp and the
// integration property tests). No product path estimates a hypervolume.

#include <vector>

#include "common/rng.hpp"

namespace clr::moea {

/// Monte-Carlo hypervolume for any dimension; `lower` bounds the sampling
/// box from below. Deterministic given the Rng state.
double hypervolume_mc(const std::vector<std::vector<double>>& points,
                      const std::vector<double>& lower, const std::vector<double>& ref,
                      std::size_t samples, util::Rng& rng);

}  // namespace clr::moea
