#include "common/stats.hpp"

namespace clr::util {

double student_t_95(std::size_t df) {
  // Two-sided 0.95 quantiles of the t distribution.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return std::numeric_limits<double>::infinity();
  if (df <= 30) return kTable[df - 1];
  return 1.960;
}

Summary summarize(const RunningStats& stats) {
  Summary s;
  s.count = stats.count();
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.min = stats.min();
  s.max = stats.max();
  if (s.count > 1) {
    s.ci95 = student_t_95(s.count - 1) * s.stddev / std::sqrt(static_cast<double>(s.count));
  }
  return s;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q out of [0,1]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace clr::util
