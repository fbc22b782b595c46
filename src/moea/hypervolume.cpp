#include "moea/hypervolume.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace clr::moea {

double hypervolume_2d(std::vector<std::array<double, 2>> points,
                      const std::array<double, 2>& ref) {
  // Keep points strictly inside the reference box.
  std::erase_if(points, [&](const auto& p) { return p[0] >= ref[0] || p[1] >= ref[1]; });
  if (points.empty()) return 0.0;
  // Sort by first objective ascending (ties: second ascending), then build
  // the lower-left staircase of points that strictly improve the second
  // objective.
  std::sort(points.begin(), points.end());
  double hv = 0.0;
  std::vector<std::array<double, 2>> stair;
  double min_y = ref[1];
  for (const auto& p : points) {
    if (p[1] < min_y) {
      stair.push_back(p);
      min_y = p[1];
    }
  }
  // Area of the staircase region: strips between consecutive stair points.
  for (std::size_t i = 0; i < stair.size(); ++i) {
    const double next_x = (i + 1 < stair.size()) ? stair[i + 1][0] : ref[0];
    hv += (next_x - stair[i][0]) * (ref[1] - stair[i][1]);
  }
  return hv;
}

double hypervolume_3d(std::vector<std::array<double, 3>> points,
                      const std::array<double, 3>& ref) {
  std::erase_if(points,
                [&](const auto& p) { return p[0] >= ref[0] || p[1] >= ref[1] || p[2] >= ref[2]; });
  if (points.empty()) return 0.0;
  // Slice along z: sort ascending z; each slab [z_i, z_{i+1}) is the 2-D HV of
  // all points with z <= z_i.
  std::sort(points.begin(), points.end(),
            [](const auto& a, const auto& b) { return a[2] < b[2]; });
  double hv = 0.0;
  std::vector<std::array<double, 2>> active;
  for (std::size_t i = 0; i < points.size(); ++i) {
    active.push_back({points[i][0], points[i][1]});
    // Points sharing (nearly) the same z go into the same slab.
    if (i + 1 < points.size() && points[i + 1][2] == points[i][2]) continue;
    const double z_low = points[i][2];
    const double z_high = (i + 1 < points.size()) ? points[i + 1][2] : ref[2];
    hv += hypervolume_2d(active, {ref[0], ref[1]}) * (z_high - z_low);
  }
  return hv;
}

double hypervolume(const std::vector<std::vector<double>>& points,
                   const std::vector<double>& ref) {
  if (points.empty()) return 0.0;
  const std::size_t dim = ref.size();
  for (const auto& p : points) {
    if (p.size() != dim) throw std::invalid_argument("hypervolume: point dim mismatch");
  }
  if (dim == 2) {
    std::vector<std::array<double, 2>> pts;
    pts.reserve(points.size());
    for (const auto& p : points) pts.push_back({p[0], p[1]});
    return hypervolume_2d(std::move(pts), {ref[0], ref[1]});
  }
  if (dim == 3) {
    std::vector<std::array<double, 3>> pts;
    pts.reserve(points.size());
    for (const auto& p : points) pts.push_back({p[0], p[1], p[2]});
    return hypervolume_3d(std::move(pts), {ref[0], ref[1], ref[2]});
  }
  throw std::invalid_argument("hypervolume: exact computation only for 2-D/3-D");
}

double signed_point_hypervolume(const std::vector<double>& objectives,
                                const std::vector<double>& ref,
                                const std::vector<double>& scale) {
  if (objectives.size() != ref.size() || scale.size() != ref.size()) {
    throw std::invalid_argument("signed_point_hypervolume: dimension mismatch");
  }
  double penalty = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    if (objectives[k] > ref[k]) penalty += (objectives[k] - ref[k]) * scale[k];
  }
  if (penalty > 0.0) return -penalty;
  double hv = 1.0;
  for (std::size_t k = 0; k < ref.size(); ++k) hv *= (ref[k] - objectives[k]) * scale[k];
  return hv;
}

}  // namespace clr::moea
