// Unit tests for the run-time fault-injection subsystem: parameter
// validation, the CLR recovery chain, platform-health bookkeeping and the
// deterministic merged fault timeline.

#include "faults/fault_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "reliability/techniques.hpp"

namespace clr::flt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

dse::DesignPoint make_point(std::vector<plat::PeId> pes, double makespan = 10.0,
                            double func_rel = 0.99, double energy = 5.0) {
  dse::DesignPoint p;
  for (std::size_t t = 0; t < pes.size(); ++t) {
    sched::TaskAssignment a;
    a.pe = pes[t];
    a.priority = static_cast<std::int32_t>(t);  // distinct configs for dedup
    p.config.tasks.push_back(a);
  }
  p.makespan = makespan;
  p.func_rel = func_rel;
  p.energy = energy;
  return p;
}

dse::DesignDb make_db() {
  dse::DesignDb db;
  db.add(make_point({0, 0}));        // point 0: PE 0 only
  db.add(make_point({1, 1}, 12.0));  // point 1: PE 1 only
  db.add(make_point({0, 1}, 14.0));  // point 2: PEs 0 and 1
  return db;
}

TEST(FaultParams, ValidateAcceptsDefaultsAndRejectsOutOfRange) {
  FaultParams ok;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_FALSE(ok.enabled());
  ok.transient_rate = 1e-4;
  EXPECT_TRUE(ok.enabled());

  FaultParams bad = ok;
  bad.transient_rate = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.pe_mtbf = -5.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.qos_tolerance = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.fallback_coverage = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.recovery_latency = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(RecoveryProbability, UnprotectedConfigRecoversNothing) {
  rel::ClrConfig cfg;  // HW/SSW/ASW all None
  EXPECT_DOUBLE_EQ(recovery_probability(cfg), 1.0 - rel::hw_traits(rel::HwTechnique::None).residual);
}

TEST(RecoveryProbability, FollowsTheMaskingChain) {
  rel::ClrConfig cfg;
  cfg.hw = rel::HwTechnique::Hardening;
  cfg.asw = rel::AswTechnique::Hamming;
  cfg.ssw = rel::SswTechnique::Retry;
  const auto& hw = rel::hw_traits(cfg.hw);
  const auto& asw = rel::asw_traits(cfg.asw);
  const double expected =
      (1.0 - hw.residual) +
      hw.residual * (asw.correct_coverage + (asw.detect_coverage - asw.correct_coverage));
  EXPECT_DOUBLE_EQ(recovery_probability(cfg), expected);

  // Without SSW the detected-but-uncorrected share is lost.
  cfg.ssw = rel::SswTechnique::None;
  const double no_reexec = (1.0 - hw.residual) + hw.residual * asw.correct_coverage;
  EXPECT_DOUBLE_EQ(recovery_probability(cfg), no_reexec);
  EXPECT_LT(recovery_probability(cfg), expected);
}

TEST(PlatformHealth, KillPeRetiresDependentPoints) {
  const auto db = make_db();
  PlatformHealth health(db, 2);
  EXPECT_EQ(health.num_alive_pes(), 2u);
  EXPECT_EQ(health.num_alive_points(), 3u);
  EXPECT_TRUE(health.all_pes_alive());

  health.kill_pe(0);
  EXPECT_FALSE(health.pe_alive(0));
  EXPECT_TRUE(health.pe_alive(1));
  EXPECT_EQ(health.num_alive_pes(), 1u);
  EXPECT_FALSE(health.point_alive(0));  // on PE 0
  EXPECT_TRUE(health.point_alive(1));   // on PE 1 only
  EXPECT_FALSE(health.point_alive(2));  // spans both
  EXPECT_EQ(health.num_alive_points(), 1u);
  EXPECT_EQ(health.point_mask(), (std::vector<bool>{false, true, false}));

  // Idempotent: killing again changes nothing.
  health.kill_pe(0);
  EXPECT_EQ(health.num_alive_pes(), 1u);
  EXPECT_EQ(health.num_alive_points(), 1u);

  health.kill_pe(1);
  EXPECT_EQ(health.num_alive_points(), 0u);
}

TEST(PlatformHealth, RejectsPointsBeyondThePlatform) {
  const auto db = make_db();  // references PE 1
  EXPECT_EQ(db.pe_bound(), 2u);
  EXPECT_THROW(PlatformHealth(db, 1), std::invalid_argument);
  EXPECT_NO_THROW(PlatformHealth(db, 2));
  EXPECT_NO_THROW(PlatformHealth(dse::DesignDb{}, 0));
}

TEST(PlatformHealth, RandomKillSequencesMatchTheMaskRecomputedFromTheBindings) {
  // After every kill, a point is alive exactly when every PE its tasks bind
  // to is alive, recomputed here from the bindings.
  util::Rng rng(0x4EA1u);
  for (std::size_t c = 0; c < 200; ++c) {
    const std::size_t pes = 1 + rng.index(12);
    const std::size_t points = 1 + rng.index(40);
    dse::DesignDb db;
    for (std::size_t i = 0; i < points; ++i) {
      std::vector<plat::PeId> bound(1 + rng.index(6));
      for (auto& pe : bound) pe = static_cast<plat::PeId>(rng.index(pes));
      db.add(make_point(bound));
    }
    const std::size_t platform = pes + rng.index(3);  // spare PEs no point uses
    ASSERT_LE(db.pe_bound(), platform);
    PlatformHealth health(db, platform);
    std::vector<bool> pe_alive(platform, true);
    // Repeats, spare PEs and ids beyond the platform included.
    for (std::size_t k = 0; k < 2 * platform; ++k) {
      const auto pe = static_cast<plat::PeId>(rng.index(platform + 2));
      health.kill_pe(pe);
      if (pe < platform) pe_alive[pe] = false;
      std::vector<bool> want(db.size(), true);
      for (std::size_t i = 0; i < db.size(); ++i) {
        for (const auto& a : db.point(i).config.tasks) want[i] = want[i] && pe_alive[a.pe];
      }
      const auto alive_points =
          static_cast<std::size_t>(std::count(want.begin(), want.end(), true));
      const auto alive_pes =
          static_cast<std::size_t>(std::count(pe_alive.begin(), pe_alive.end(), true));
      ASSERT_EQ(health.point_mask(), want) << "case " << c << " kill " << k;
      ASSERT_EQ(health.num_alive_points(), alive_points) << "case " << c << " kill " << k;
      ASSERT_EQ(health.num_alive_pes(), alive_pes) << "case " << c << " kill " << k;
      for (std::size_t pe_id = 0; pe_id < platform; ++pe_id) {
        ASSERT_EQ(health.pe_alive(static_cast<plat::PeId>(pe_id)), pe_alive[pe_id]);
      }
    }
  }
}

TEST(FaultInjector, AllRatesZeroMeansNoEvents) {
  FaultParams params;  // both rates 0
  FaultInjector injector(params, uniform_profiles(2), 42);
  EXPECT_EQ(injector.next_time(), kInf);
  EXPECT_THROW(injector.pop(), std::logic_error);
}

TEST(FaultInjector, SameSeedSameTimeline) {
  FaultParams params;
  params.transient_rate = 1e-3;
  params.pe_mtbf = 5e3;
  for (int trial = 0; trial < 2; ++trial) {
    FaultInjector a(params, uniform_profiles(3), 7);
    FaultInjector b(params, uniform_profiles(3), 7);
    for (int i = 0; i < 50 && a.next_time() < kInf; ++i) {
      const auto ea = a.pop();
      const auto eb = b.pop();
      EXPECT_EQ(ea.time, eb.time);
      EXPECT_EQ(ea.pe, eb.pe);
      EXPECT_EQ(ea.kind, eb.kind);
    }
  }
  FaultInjector a(params, uniform_profiles(3), 7);
  FaultInjector c(params, uniform_profiles(3), 8);
  EXPECT_NE(a.next_time(), c.next_time());
}

TEST(FaultInjector, TimesAreNondecreasingAndPermanentsFireOnce) {
  FaultParams params;
  params.transient_rate = 2e-3;
  params.pe_mtbf = 2e3;
  FaultInjector injector(params, uniform_profiles(4), 11);
  double last = 0.0;
  std::vector<int> deaths(4, 0);
  std::vector<bool> dead(4, false);
  for (int i = 0; i < 500 && injector.next_time() < kInf; ++i) {
    const auto ev = injector.pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
    if (ev.kind == FaultKind::Permanent) {
      ++deaths[ev.pe];
      dead[ev.pe] = true;
    } else {
      // A dead PE emits no further soft errors.
      EXPECT_FALSE(dead[ev.pe]);
    }
  }
  for (int d : deaths) EXPECT_EQ(d, 1);  // every PE wears out exactly once
}

TEST(FaultInjector, SerScaleZeroSilencesAPe) {
  FaultParams params;
  params.transient_rate = 1e-2;
  std::vector<PeFaultProfile> profiles = uniform_profiles(2);
  profiles[1].ser_scale = 0.0;
  FaultInjector injector(params, profiles, 3);
  for (int i = 0; i < 200; ++i) {
    const auto ev = injector.pop();
    EXPECT_EQ(ev.pe, 0u);
  }
}

TEST(Weibull, ScaleMatchesMeanAndSamplesConcentrate) {
  // Shape 1 degenerates to the exponential: scale == mean.
  EXPECT_NEAR(FaultInjector::weibull_scale_for_mean(1000.0, 1.0), 1000.0, 1e-9);
  EXPECT_THROW(FaultInjector::weibull_scale_for_mean(0.0, 2.0), std::invalid_argument);

  const double shape = 2.0, mean = 500.0;
  const double scale = FaultInjector::weibull_scale_for_mean(mean, shape);
  util::Rng rng(99);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += FaultInjector::sample_weibull(rng, shape, scale);
  EXPECT_NEAR(sum / n, mean, 0.05 * mean);
}

TEST(Profiles, PlatformProfilesCarryAvfAndAging) {
  const auto platform = plat::make_default_hmpsoc();
  const auto profiles = profiles_from_platform(platform);
  ASSERT_EQ(profiles.size(), platform.num_pes());
  for (std::size_t pe = 0; pe < profiles.size(); ++pe) {
    const auto& type = platform.pe_type(platform.pes()[pe].type);
    EXPECT_DOUBLE_EQ(profiles[pe].ser_scale, type.avf);
    EXPECT_DOUBLE_EQ(profiles[pe].weibull_shape, type.beta_aging);
  }
}

}  // namespace
}  // namespace clr::flt
