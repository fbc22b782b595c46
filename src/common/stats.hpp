#pragma once
// Streaming statistics helpers used by the Monte-Carlo runtime simulator and
// the benchmark reporters.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace clr::util {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::size_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

  void merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) { *this = other; return; }
    const double total = static_cast<double>(n_ + other.n_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) / total;
    mean_ = (mean_ * static_cast<double>(n_) + other.mean_ * static_cast<double>(other.n_)) / total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (exact table up to 30, the normal 1.96 asymptote beyond). df = 0 returns
/// infinity — a single replication carries no interval information.
double student_t_95(std::size_t df);

/// Compact replication summary: the interval estimate the replicated
/// runtime-experiment harness reports for every RuntimeStats field.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation
  /// Half-width of the 95% confidence interval of the mean (Student-t);
  /// 0 for fewer than two samples.
  double ci95 = 0.0;
  double min = 0.0;
  double max = 0.0;

  bool operator==(const Summary&) const = default;
};

/// Summarize a finished replication stream.
Summary summarize(const RunningStats& stats);

/// Percentile of a sample (linear interpolation). q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Min–max normalization of `x` into [0, 1]; returns 0 when the range is
/// degenerate (all values equal) — the convention Algorithm 1 needs so a
/// single-candidate feasible set is not penalized. Inline: the run-time
/// policies call it per candidate on every decision.
inline double min_max_norm(double x, double lo, double hi) {
  const double range = hi - lo;
  if (range <= 0.0) return 0.0;
  return std::clamp((x - lo) / range, 0.0, 1.0);
}

}  // namespace clr::util
