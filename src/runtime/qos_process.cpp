#include "runtime/qos_process.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace clr::rt {

namespace {
util::BivariateGaussian make_dist(const dse::MetricRanges& r, const QosProcessParams& p) {
  const double s_range = std::max(r.makespan_max - r.makespan_min, 1e-9);
  const double f_range = std::max(r.func_rel_max - r.func_rel_min, 1e-9);
  return util::BivariateGaussian(
      r.makespan_min + p.makespan_mean_frac * s_range, r.func_rel_min + p.func_rel_mean_frac * f_range,
      std::max(p.makespan_sd_frac * s_range, 1e-12), std::max(p.func_rel_sd_frac * f_range, 1e-12),
      p.rho);
}
}  // namespace

QosProcess::QosProcess(const dse::MetricRanges& ranges, QosProcessParams params)
    : ranges_(ranges),
      params_(params),
      dist_(make_dist(ranges, params)),
      innovation_scale_(std::sqrt(std::max(0.0, 1.0 - params.ar1_phi * params.ar1_phi))) {
  if (params.mean_event_gap <= 0.0) {
    throw std::invalid_argument("QosProcess: mean_event_gap must be > 0");
  }
}

dse::QosSpec QosProcess::sample_spec(util::Rng& rng) const {
  const auto [s, f] = dist_.sample(rng);
  dse::QosSpec spec;
  spec.max_makespan = std::clamp(s, ranges_.makespan_min, ranges_.makespan_max);
  spec.min_func_rel = std::clamp(f, ranges_.func_rel_min, ranges_.func_rel_max);
  return spec;
}

dse::QosSpec QosProcess::next_spec(const dse::QosSpec& prev, util::Rng& rng) const {
  const double phi = params_.ar1_phi;
  if (phi == 0.0) return sample_spec(rng);
  const auto [s_inn, f_inn] = dist_.sample(rng);
  const double s = dist_.mean_x() + phi * (prev.max_makespan - dist_.mean_x()) +
                   innovation_scale_ * (s_inn - dist_.mean_x());
  const double f = dist_.mean_y() + phi * (prev.min_func_rel - dist_.mean_y()) +
                   innovation_scale_ * (f_inn - dist_.mean_y());
  dse::QosSpec spec;
  spec.max_makespan = std::clamp(s, ranges_.makespan_min, ranges_.makespan_max);
  spec.min_func_rel = std::clamp(f, ranges_.func_rel_min, ranges_.func_rel_max);
  return spec;
}

double QosProcess::sample_gap(util::Rng& rng) const {
  return rng.exponential_mean(params_.mean_event_gap);
}

}  // namespace clr::rt
