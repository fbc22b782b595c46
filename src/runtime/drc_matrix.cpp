#include "runtime/drc_matrix.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/parallel.hpp"
#include "trace/trace.hpp"

namespace clr::rt {

namespace {

double max_of(const std::vector<double>& costs) {
  double best = 0.0;
  for (double c : costs) best = std::max(best, c);
  return best;
}

}  // namespace

DrcMatrix::DrcMatrix(std::size_t n, std::vector<double> costs)
    : n_(n), costs_(std::move(costs)) {
  if (costs_.size() != n_ * n_) {
    throw std::invalid_argument("DrcMatrix: cost table must be n*n");
  }
  max_drc_ = max_of(costs_);
}

double DrcMatrix::drc(std::size_t from, std::size_t to,
                      const std::vector<bool>* point_alive) const {
  if (point_alive != nullptr && !(*point_alive)[to]) {
    return std::numeric_limits<double>::infinity();
  }
  return drc(from, to);
}

DrcMatrix::DrcMatrix(const dse::DesignDb& db, const recfg::ReconfigModel& model)
    : DrcMatrix(db, model, nullptr) {}

DrcMatrix::DrcMatrix(const dse::DesignDb& db, const recfg::ReconfigModel& model,
                     util::ThreadPool* pool)
    : n_(db.size()), costs_(db.size() * db.size(), 0.0) {
  CLR_TRACE_SPAN(build_span, trace::Category::Drc, "drc.build",
                 {{"points", n_}, {"parallel", pool != nullptr}});
  const auto fill_row = [&](std::size_t i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i == j) continue;
      costs_[i * n_ + j] = model.drc(db.point(i).config, db.point(j).config);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n_, fill_row);
  } else {
    for (std::size_t i = 0; i < n_; ++i) fill_row(i);
  }
  max_drc_ = max_of(costs_);
}

}  // namespace clr::rt
