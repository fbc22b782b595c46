#pragma once
// The stochastic operating environment of §5.1: QoS requirements (SSPEC,
// FSPEC) vary as a bivariate Gaussian, and the time between discrete events
// is exponential with a mean of 100 application execution cycles.

#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "dse/design_db.hpp"

namespace clr::rt {

/// Parameters of the QoS-requirement process, expressed as fractions of the
/// achievable metric ranges so one definition works across applications.
struct QosProcessParams {
  /// Mean of the makespan bound, as a fraction of [S_min, S_max]. Tight
  /// enough that new requirements regularly invalidate the current point
  /// (the paper's Fig. 6 shows reconfigurations on roughly half the events).
  double makespan_mean_frac = 0.45;
  double makespan_sd_frac = 0.25;
  /// Mean of the reliability floor, as a fraction of [F_min, F_max].
  double func_rel_mean_frac = 0.60;
  double func_rel_sd_frac = 0.25;
  /// Correlation between the two requirements (tight latency often comes
  /// with tight reliability in the paper's surveillance scenario).
  double rho = 0.3;
  /// Temporal autocorrelation of consecutive requirements (AR(1) factor).
  /// The paper's motivating scenario — battery level and terrain drifting
  /// over a satellite pass — changes requirements gradually, not i.i.d.;
  /// phi = 0 recovers independent draws.
  double ar1_phi = 0.6;
  /// Mean cycles between QoS-change events (exponential).
  double mean_event_gap = 100.0;
};

/// Samples QoS-requirement changes and event gaps; calibrated to a database's
/// achievable metric ranges so most sampled specs are satisfiable.
class QosProcess {
 public:
  QosProcess(const dse::MetricRanges& ranges, QosProcessParams params = {});

  /// Draw a QoS requirement from the stationary distribution (clamped into
  /// the achievable box). Used for the first event of a run.
  dse::QosSpec sample_spec(util::Rng& rng) const;

  /// AR(1) step: the next requirement drifts from `prev` toward the mean
  /// with innovation scaled by sqrt(1 - phi^2), so the stationary marginal
  /// matches sample_spec. phi = 0 degenerates to sample_spec.
  dse::QosSpec next_spec(const dse::QosSpec& prev, util::Rng& rng) const;

  /// Draw the gap (in application cycles) to the next discrete event.
  double sample_gap(util::Rng& rng) const;

  const QosProcessParams& params() const { return params_; }
  const dse::MetricRanges& ranges() const { return ranges_; }

 private:
  dse::MetricRanges ranges_;
  QosProcessParams params_;
  util::BivariateGaussian dist_;
  double innovation_scale_;  // sqrt(max(0, 1 - phi²)) of next_spec
};

}  // namespace clr::rt
