#pragma once
// Hypervolume computation for the Eq. (5) fitness (Fig. 4a) and for DSE
// quality metrics: exact 2-D and 3-D algorithms.

#include <array>
#include <vector>

namespace clr::moea {

/// Exact hypervolume (minimization) dominated by `points` relative to
/// reference `ref`. Points worse than `ref` in any dimension contribute
/// nothing. 2-D sweep algorithm.
double hypervolume_2d(std::vector<std::array<double, 2>> points, const std::array<double, 2>& ref);

/// Exact 3-D hypervolume by slicing along the third objective.
double hypervolume_3d(std::vector<std::array<double, 3>> points, const std::array<double, 3>& ref);

/// Exact hypervolume of an arbitrary-dimension point set, dispatching to the
/// 2-D/3-D exact routines; throws for other dimensions.
double hypervolume(const std::vector<std::vector<double>>& points, const std::vector<double>& ref);

/// Signed per-point hypervolume fitness of Fig. 4a:
///  - feasible (all objectives <= ref): + product of (ref_k - f_k)
///  - infeasible: - sum over violated dimensions of (f_k - ref_k) * scale_k,
///    so selection pressure points back toward the feasible box.
/// `scale` normalizes heterogeneous objective units (pass 1s if unused).
double signed_point_hypervolume(const std::vector<double>& objectives,
                                const std::vector<double>& ref,
                                const std::vector<double>& scale);

}  // namespace clr::moea
