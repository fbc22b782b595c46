#include "dse/design_db.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"

namespace clr::dse {

std::uint64_t hash_configuration(const sched::Configuration& config) {
  util::WordHasher h(4 * config.size());
  for (const auto& t : config.tasks) {
    h.add(t.pe);
    h.add(t.impl_index);
    h.add(t.clr_index);
    h.add(static_cast<std::uint32_t>(t.priority));
  }
  return h.finish();
}

namespace {

double violation(double makespan, double func_rel, const QosSpec& spec) {
  double v = 0.0;
  if (makespan > spec.max_makespan) {
    v += (makespan - spec.max_makespan) / spec.max_makespan;
  }
  if (func_rel < spec.min_func_rel) {
    v += (spec.min_func_rel - func_rel) / std::max(spec.min_func_rel, 1e-9);
  }
  return v;
}

}  // namespace

std::size_t DesignDb::add(DesignPoint point) {
  auto& bucket = index_[hash_configuration(point.config)];
  for (std::size_t i : bucket) {
    if (points_[i].config == point.config) return i;
  }
  bucket.push_back(points_.size());
  for (const auto& a : point.config.tasks) {
    pe_bound_ = std::max(pe_bound_, static_cast<std::size_t>(a.pe) + 1);
  }
  makespan_.push_back(point.makespan);
  func_rel_.push_back(point.func_rel);
  energy_.push_back(point.energy);
  points_.push_back(std::move(point));
  return points_.size() - 1;
}

void DesignDb::reserve(std::size_t n) {
  points_.reserve(n);
  makespan_.reserve(n);
  func_rel_.reserve(n);
  energy_.reserve(n);
}

std::size_t DesignDb::feasible_into(const QosSpec& spec, std::span<std::size_t> out,
                                    const std::vector<bool>* point_alive) const {
  const std::size_t n = points_.size();
  if (out.size() < n) {
    throw std::invalid_argument("DesignDb::feasible_into: out holds fewer than size() entries");
  }
  const double* makespan = makespan_.data();
  const double* func_rel = func_rel_.data();
  std::size_t* dst = out.data();
  std::size_t m = 0;
  if (point_alive == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[m] = i;
      m += static_cast<std::size_t>(spec.satisfied_by(makespan[i], func_rel[i]));
    }
  } else {
    const std::vector<bool>& alive = *point_alive;
    for (std::size_t i = 0; i < n; ++i) {
      dst[m] = i;
      m += static_cast<std::size_t>(spec.satisfied_by(makespan[i], func_rel[i]) & alive[i]);
    }
  }
  return m;
}

double DesignDb::violation_of(std::size_t i, const QosSpec& spec) const {
  return violation(makespan_.at(i), func_rel_.at(i), spec);
}

std::size_t DesignDb::least_violating(const QosSpec& spec,
                                      const std::vector<bool>* point_alive) const {
  if (points_.empty()) throw std::logic_error("DesignDb::least_violating: empty database");
  std::size_t best = points_.size();
  double best_violation = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (point_alive != nullptr && !(*point_alive)[i]) continue;
    const double v = violation(makespan_[i], func_rel_[i], spec);
    if (v < best_violation) {
      best_violation = v;
      best = i;
    }
  }
  if (best == points_.size()) {
    throw std::logic_error("DesignDb::least_violating: alive-mask excludes every stored point");
  }
  return best;
}

bool DesignDb::uses_pe(std::size_t i, plat::PeId pe) const {
  const auto& tasks = points_.at(i).config.tasks;
  return std::any_of(tasks.begin(), tasks.end(),
                     [&](const sched::TaskAssignment& a) { return a.pe == pe; });
}

MetricRanges DesignDb::ranges() const {
  MetricRanges r;
  if (points_.empty()) return r;
  r.energy_min = r.energy_max = points_.front().energy;
  r.makespan_min = r.makespan_max = points_.front().makespan;
  r.func_rel_min = r.func_rel_max = points_.front().func_rel;
  for (const auto& p : points_) {
    r.energy_min = std::min(r.energy_min, p.energy);
    r.energy_max = std::max(r.energy_max, p.energy);
    r.makespan_min = std::min(r.makespan_min, p.makespan);
    r.makespan_max = std::max(r.makespan_max, p.makespan);
    r.func_rel_min = std::min(r.func_rel_min, p.func_rel);
    r.func_rel_max = std::max(r.func_rel_max, p.func_rel);
  }
  return r;
}

std::size_t DesignDb::num_extra() const {
  return static_cast<std::size_t>(
      std::count_if(points_.begin(), points_.end(), [](const DesignPoint& p) { return p.extra; }));
}

std::vector<sched::Configuration> DesignDb::configurations() const {
  std::vector<sched::Configuration> result;
  result.reserve(points_.size());
  for (const auto& p : points_) result.push_back(p.config);
  return result;
}

DesignDb DesignDb::without_pe(plat::PeId failed_pe) const {
  DesignDb survivor;
  for (const auto& p : points_) {
    const bool uses_failed = std::any_of(
        p.config.tasks.begin(), p.config.tasks.end(),
        [&](const sched::TaskAssignment& a) { return a.pe == failed_pe; });
    if (!uses_failed) survivor.add(p);
  }
  return survivor;
}

std::string DesignDb::summary() const {
  const MetricRanges r = ranges();
  std::ostringstream oss;
  oss << points_.size() << " points (" << num_extra() << " extra), S in [" << r.makespan_min
      << ", " << r.makespan_max << "], F in [" << r.func_rel_min << ", " << r.func_rel_max
      << "], J in [" << r.energy_min << ", " << r.energy_max << "]";
  return oss.str();
}

}  // namespace clr::dse
