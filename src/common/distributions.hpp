#pragma once
// Distributions used by the experiment setup of the paper (§5.1):
// bivariate Gaussian for QoS-requirement variation and exponential
// inter-arrival for discrete events; truncated normal as a clamped helper.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace clr::util {

/// Bivariate Gaussian with correlation, sampled via Cholesky decomposition.
///
/// The paper uses a bivariate Gaussian to emulate joint variation of the two
/// QoS requirements (makespan bound, reliability floor).
class BivariateGaussian {
 public:
  /// @param rho correlation coefficient in (-1, 1).
  BivariateGaussian(double mean_x, double mean_y, double sd_x, double sd_y, double rho)
      : mean_x_(mean_x),
        mean_y_(mean_y),
        sd_x_(sd_x),
        sd_y_(sd_y),
        rho_(rho),
        rho_complement_(std::sqrt(1.0 - rho * rho)) {
    if (sd_x <= 0.0 || sd_y <= 0.0) {
      throw std::invalid_argument("BivariateGaussian: standard deviations must be > 0");
    }
    if (rho <= -1.0 || rho >= 1.0) {
      throw std::invalid_argument("BivariateGaussian: rho must be in (-1, 1)");
    }
  }

  /// Draw one correlated pair.
  std::pair<double, double> sample(Rng& rng) const {
    const double z1 = rng.normal(0.0, 1.0);
    const double z2 = rng.normal(0.0, 1.0);
    const double x = mean_x_ + sd_x_ * z1;
    const double y = mean_y_ + sd_y_ * (rho_ * z1 + rho_complement_ * z2);
    return {x, y};
  }

  double mean_x() const { return mean_x_; }
  double mean_y() const { return mean_y_; }
  double sd_x() const { return sd_x_; }
  double sd_y() const { return sd_y_; }
  double rho() const { return rho_; }

 private:
  double mean_x_, mean_y_, sd_x_, sd_y_, rho_;
  double rho_complement_;  // sqrt(1 - rho²), the weight of the independent draw
};

/// Normal distribution clamped (not re-sampled) to [lo, hi].
class ClampedNormal {
 public:
  ClampedNormal(double mean, double stddev, double lo, double hi)
      : mean_(mean), stddev_(stddev), lo_(lo), hi_(hi) {
    if (lo > hi) throw std::invalid_argument("ClampedNormal: lo > hi");
    if (stddev <= 0.0) throw std::invalid_argument("ClampedNormal: stddev must be > 0");
  }

  double sample(Rng& rng) const {
    return std::clamp(rng.normal(mean_, stddev_), lo_, hi_);
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double mean_, stddev_, lo_, hi_;
};

}  // namespace clr::util
