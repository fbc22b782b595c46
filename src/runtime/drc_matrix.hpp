#pragma once
// Precomputed pairwise reconfiguration costs between all stored design
// points. The database is immutable at run-time, so dRC(i -> j) is evaluated
// once; the Monte-Carlo simulator then does O(1) lookups per candidate
// instead of re-walking both configurations on every event.

#include <vector>

#include "dse/design_db.hpp"
#include "reconfig/reconfig.hpp"

namespace clr::util {
class ThreadPool;
}

namespace clr::rt {

class DrcMatrix {
 public:
  DrcMatrix(const dse::DesignDb& db, const recfg::ReconfigModel& model);

  /// Same table, with the O(n²) ReconfigModel::drc evaluations fanned out
  /// over `pool` (row-parallel; the model is stateless-const, each row writes
  /// only its own slice). nullptr builds sequentially. Bit-for-bit identical
  /// to the sequential constructor at any thread count.
  DrcMatrix(const dse::DesignDb& db, const recfg::ReconfigModel& model, util::ThreadPool* pool);

  /// Build from an explicit row-major n x n cost table (tests, what-if
  /// analyses). Throws std::invalid_argument unless costs.size() == n*n.
  DrcMatrix(std::size_t n, std::vector<double> costs);

  /// dRC of reconfiguring from stored point `from` to stored point `to`.
  double drc(std::size_t from, std::size_t to) const { return costs_[from * n_ + to]; }

  /// The costs out of stored point `from`: row(from)[to] == drc(from, to),
  /// size() entries, valid as long as the matrix.
  const double* row(std::size_t from) const { return costs_.data() + from * n_; }

  /// dRC with dead-point invalidation: a permanent PE fault retires stored
  /// points (flt::PlatformHealth), and every table entry *into* a dead point
  /// becomes +infinity — a dead target can never win a cost comparison even
  /// if a caller forgets to filter its candidate set. Costs *from* a dead
  /// point stay valid: an evacuation still migrates the surviving task
  /// binaries. nullptr mask keeps the plain lookup.
  double drc(std::size_t from, std::size_t to, const std::vector<bool>* point_alive) const;

  /// Largest pairwise cost in the table (global normalization scale),
  /// computed once by each constructor.
  double max_drc() const { return max_drc_; }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> costs_;
  double max_drc_ = 0.0;
};

}  // namespace clr::rt
