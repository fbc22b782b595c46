#include "faults/fault_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "reliability/techniques.hpp"

namespace clr::flt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void FaultParams::validate() const {
  if (transient_rate < 0.0 || !std::isfinite(transient_rate)) {
    throw std::invalid_argument("FaultParams: transient_rate must be finite and >= 0");
  }
  if (pe_mtbf < 0.0 || !std::isfinite(pe_mtbf)) {
    throw std::invalid_argument("FaultParams: pe_mtbf must be finite and >= 0");
  }
  if (recovery_latency < 0.0) {
    throw std::invalid_argument("FaultParams: recovery_latency must be >= 0");
  }
  if (reexec_energy_factor < 0.0) {
    throw std::invalid_argument("FaultParams: reexec_energy_factor must be >= 0");
  }
  if (qos_tolerance < 0.0 || qos_tolerance > 1.0) {
    throw std::invalid_argument("FaultParams: qos_tolerance must be in [0, 1]");
  }
  if (fallback_coverage < 0.0 || fallback_coverage > 1.0) {
    throw std::invalid_argument("FaultParams: fallback_coverage must be in [0, 1]");
  }
}

std::vector<PeFaultProfile> profiles_from_platform(const plat::Platform& platform) {
  std::vector<PeFaultProfile> profiles;
  profiles.reserve(platform.num_pes());
  for (const auto& pe : platform.pes()) {
    const auto& type = platform.pe_type(pe.type);
    profiles.push_back(PeFaultProfile{type.avf, type.beta_aging});
  }
  return profiles;
}

std::vector<PeFaultProfile> uniform_profiles(std::size_t n) {
  return std::vector<PeFaultProfile>(n, PeFaultProfile{});
}

double recovery_probability(const rel::ClrConfig& cfg) {
  const auto& hw = rel::hw_traits(cfg.hw);
  const auto& asw = rel::asw_traits(cfg.asw);
  // Chain: spatially masked by the HW layer, else corrected in place by the
  // ASW layer, else detected by the ASW layer and re-executed when an SSW
  // technique is listening for detections.
  const double reexec = cfg.ssw != rel::SswTechnique::None ? 1.0 : 0.0;
  const double survive_given_upset =
      asw.correct_coverage + (asw.detect_coverage - asw.correct_coverage) * reexec;
  return (1.0 - hw.residual) + hw.residual * survive_given_upset;
}

PlatformHealth::PlatformHealth(const dse::DesignDb& db, std::size_t num_pes)
    : db_(&db),
      pe_alive_(num_pes, true),
      point_alive_(db.size(), true),
      num_alive_pes_(num_pes),
      num_alive_points_(db.size()) {
  if (db.pe_bound() > num_pes) {
    throw std::invalid_argument(
        "PlatformHealth: stored point binds a task to PE id beyond the platform");
  }
}

void PlatformHealth::kill_pe(plat::PeId pe) {
  if (pe >= pe_alive_.size() || !pe_alive_[pe]) return;
  pe_alive_[pe] = false;
  --num_alive_pes_;
  for (std::size_t point = 0; point < point_alive_.size(); ++point) {
    if (point_alive_[point] && db_->uses_pe(point, pe)) {
      point_alive_[point] = false;
      --num_alive_points_;
    }
  }
}

FaultInjector::FaultInjector(const FaultParams& params, std::vector<PeFaultProfile> profiles,
                             std::uint64_t seed)
    : params_(params), profiles_(std::move(profiles)), rng_(seed) {
  params_.validate();
  if (profiles_.empty()) {
    throw std::invalid_argument("FaultInjector: at least one PE profile is required");
  }
  for (const auto& p : profiles_) {
    if (p.ser_scale < 0.0 || p.weibull_shape <= 0.0) {
      throw std::invalid_argument("FaultInjector: ser_scale must be >= 0, weibull_shape > 0");
    }
  }

  // Fixed sampling order (all permanents, then all first transients, both by
  // ascending PE id) so one seed always yields one timeline.
  permanent_at_.assign(profiles_.size(), kInf);
  if (params_.pe_mtbf > 0.0) {
    for (std::size_t pe = 0; pe < profiles_.size(); ++pe) {
      const double scale = weibull_scale_for_mean(params_.pe_mtbf, profiles_[pe].weibull_shape);
      permanent_at_[pe] = sample_weibull(rng_, profiles_[pe].weibull_shape, scale);
    }
  }
  next_transient_.assign(profiles_.size(), kInf);
  if (params_.transient_rate > 0.0) {
    for (std::size_t pe = 0; pe < profiles_.size(); ++pe) {
      next_transient_[pe] = sample_transient_gap(pe);
    }
  }
}

double FaultInjector::sample_transient_gap(std::size_t pe) {
  const double rate = params_.transient_rate * profiles_[pe].ser_scale;
  if (rate <= 0.0) return kInf;
  return rng_.exponential_mean(1.0 / rate);
}

double FaultInjector::next_time() const {
  double best = kInf;
  for (std::size_t pe = 0; pe < profiles_.size(); ++pe) {
    best = std::min(best, std::min(permanent_at_[pe], next_transient_[pe]));
  }
  return best;
}

FaultEvent FaultInjector::pop() {
  const double when = next_time();
  if (when == kInf) throw std::logic_error("FaultInjector::pop: no pending fault");

  // Permanent faults win ties (the PE dies before any coincident upset on it
  // could matter); among equals the lowest PE id goes first.
  for (std::size_t pe = 0; pe < profiles_.size(); ++pe) {
    if (permanent_at_[pe] == when) {
      permanent_at_[pe] = kInf;
      next_transient_[pe] = kInf;  // a dead PE emits no further soft errors
      return FaultEvent{when, static_cast<plat::PeId>(pe), FaultKind::Permanent};
    }
  }
  for (std::size_t pe = 0; pe < profiles_.size(); ++pe) {
    if (next_transient_[pe] == when) {
      next_transient_[pe] = when + sample_transient_gap(pe);
      return FaultEvent{when, static_cast<plat::PeId>(pe), FaultKind::Transient};
    }
  }
  throw std::logic_error("FaultInjector::pop: inconsistent timeline");
}

double FaultInjector::weibull_scale_for_mean(double mean, double shape) {
  if (mean <= 0.0 || shape <= 0.0) {
    throw std::invalid_argument("weibull_scale_for_mean: mean and shape must be > 0");
  }
  return mean / std::tgamma(1.0 + 1.0 / shape);
}

double FaultInjector::sample_weibull(util::Rng& rng, double shape, double scale) {
  // Inverse CDF: t = scale * (-ln(1 - u))^(1/shape); u in [0, 1) keeps the
  // log argument strictly positive.
  const double u = rng.uniform();
  return scale * std::pow(-std::log(1.0 - u), 1.0 / shape);
}

}  // namespace clr::flt
