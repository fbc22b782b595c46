#include "reconfig/reconfig.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "platform/platform.hpp"
#include "taskgraph/generator.hpp"

namespace clr::recfg {
namespace {

class ReconfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plat::PeType gp;
    gp.kind = plat::PeKind::GeneralPurpose;
    const auto t_gp = hw_.add_pe_type(gp);
    plat::PeType accel;
    accel.kind = plat::PeKind::Accelerator;
    const auto t_ac = hw_.add_pe_type(accel);

    pe0_ = hw_.add_pe(t_gp);
    pe1_ = hw_.add_pe(t_gp);
    const auto prr = hw_.add_prr(4096);  // bitstream: 4096 bytes
    pe_accel_ = hw_.add_pe(t_ac, 1024, prr);

    plat::Interconnect ic;
    ic.binary_bandwidth = 1024.0;  // bytes per time unit
    ic.icap_bandwidth = 512.0;
    ic.per_migration_overhead = 2.0;
    hw_.set_interconnect(ic);

    impls_.resize(2);
    rel::Implementation cpu_impl;
    cpu_impl.pe_type = t_gp;
    cpu_impl.binary_bytes = 2048;
    rel::Implementation accel_impl;
    accel_impl.pe_type = t_ac;
    accel_impl.binary_bytes = 1024;
    impls_.add(0, cpu_impl);    // task 0 impl 0: CPU
    impls_.add(0, accel_impl);  // task 0 impl 1: accelerator
    impls_.add(1, cpu_impl);    // task 1 impl 0: CPU
  }

  sched::Configuration base_config() const {
    sched::Configuration cfg;
    cfg.tasks = {sched::TaskAssignment{pe0_, 0, 0, 0}, sched::TaskAssignment{pe1_, 0, 0, 0}};
    return cfg;
  }

  plat::Platform hw_;
  rel::ImplementationSet impls_;
  plat::PeId pe0_ = 0, pe1_ = 0, pe_accel_ = 0;
};

TEST_F(ReconfigTest, IdenticalConfigurationsCostNothing) {
  ReconfigModel model(hw_, impls_);
  const auto cfg = base_config();
  EXPECT_DOUBLE_EQ(model.drc(cfg, cfg), 0.0);
}

TEST_F(ReconfigTest, ClrAndPriorityChangesAreFree) {
  // §3.5 modes (1) and (2): re-ordering and CLR changes incur no cost.
  ReconfigModel model(hw_, impls_);
  const auto from = base_config();
  auto to = from;
  to[0].clr_index = 5;
  to[1].priority = 9;
  EXPECT_DOUBLE_EQ(model.drc(from, to), 0.0);
}

TEST_F(ReconfigTest, PeMigrationPaysBinaryCopyPlusOverhead) {
  ReconfigModel model(hw_, impls_);
  const auto from = base_config();
  auto to = from;
  to[0].pe = pe1_;  // move task 0 (binary 2048 bytes) to the other CPU
  const auto cost = model.cost(from, to);
  EXPECT_EQ(cost.migrated_tasks, 1u);
  EXPECT_EQ(cost.prr_loads, 0u);
  EXPECT_DOUBLE_EQ(cost.migration, 2048.0 / 1024.0 + 2.0);
  EXPECT_DOUBLE_EQ(cost.bitstream, 0.0);
  EXPECT_DOUBLE_EQ(cost.total(), 4.0);
}

TEST_F(ReconfigTest, ImplementationChangeAloneAlsoPays) {
  // §3.5 mode (3): changing the implementation copies the new binary even on
  // the same... no — impl change to accelerator moves PE too; here change CPU
  // impl binary on the same PE (simulated via distinct impl on same type).
  rel::Implementation alt;
  alt.pe_type = hw_.pe(pe0_).type;
  alt.binary_bytes = 512;
  impls_.add(1, alt);  // task 1 gets a second CPU implementation
  ReconfigModel model(hw_, impls_);
  const auto from = base_config();
  auto to = from;
  to[1].impl_index = 1;
  const auto cost = model.cost(from, to);
  EXPECT_EQ(cost.migrated_tasks, 1u);
  EXPECT_DOUBLE_EQ(cost.migration, 512.0 / 1024.0 + 2.0);
}

TEST_F(ReconfigTest, AcceleratorTargetAddsBitstream) {
  ReconfigModel model(hw_, impls_);
  const auto from = base_config();
  auto to = from;
  to[0].pe = pe_accel_;
  to[0].impl_index = 1;  // accelerator implementation (1024-byte binary)
  const auto cost = model.cost(from, to);
  EXPECT_EQ(cost.migrated_tasks, 1u);
  EXPECT_EQ(cost.prr_loads, 1u);
  EXPECT_DOUBLE_EQ(cost.migration, 1024.0 / 1024.0 + 2.0);
  EXPECT_DOUBLE_EQ(cost.bitstream, 4096.0 / 512.0);
  EXPECT_DOUBLE_EQ(cost.total(), 3.0 + 8.0);
}

TEST_F(ReconfigTest, CostGrowsWithNumberOfMigratedTasks) {
  ReconfigModel model(hw_, impls_);
  const auto from = base_config();
  auto one = from;
  one[0].pe = pe1_;
  auto two = one;
  two[1].pe = pe0_;
  EXPECT_GT(model.drc(from, two), model.drc(from, one));
}

TEST_F(ReconfigTest, SizeMismatchThrows) {
  ReconfigModel model(hw_, impls_);
  const auto from = base_config();
  sched::Configuration to;
  to.tasks.resize(1);
  EXPECT_THROW(model.drc(from, to), std::invalid_argument);
}

TEST_F(ReconfigTest, AverageDrcOverTargets) {
  ReconfigModel model(hw_, impls_);
  const auto from = base_config();
  auto moved = from;
  moved[0].pe = pe1_;  // costs 4.0 from `from`
  EXPECT_DOUBLE_EQ(model.average_drc(from, {from, moved}), 2.0);
  EXPECT_DOUBLE_EQ(model.average_drc(from, {}), 0.0);
}

TEST(ReconfigProperty, DrcIsNonNegativeAndZeroOnDiagonal) {
  tg::GeneratorParams gp;
  gp.num_tasks = 25;
  util::Rng rng(404);
  const auto graph = tg::TgffGenerator(gp).generate(rng);
  const auto hw = plat::make_default_hmpsoc();
  const auto impls = rel::generate_implementations(graph, hw, rel::ImplGenParams{}, rng);
  ReconfigModel model(hw, impls);

  auto random_config = [&]() {
    sched::Configuration cfg;
    cfg.tasks.resize(graph.num_tasks());
    for (tg::TaskId t = 0; t < graph.num_tasks(); ++t) {
      std::vector<std::pair<plat::PeId, std::size_t>> choices;
      for (const auto& pe : hw.pes()) {
        for (std::size_t i : impls.compatible_with(t, pe.type)) choices.emplace_back(pe.id, i);
      }
      const auto [pe, impl] = choices[rng.index(choices.size())];
      cfg[t] = sched::TaskAssignment{pe, static_cast<std::uint32_t>(impl), 0, 0};
    }
    return cfg;
  };

  for (int i = 0; i < 20; ++i) {
    const auto a = random_config();
    const auto b = random_config();
    EXPECT_DOUBLE_EQ(model.drc(a, a), 0.0);
    EXPECT_GE(model.drc(a, b), 0.0);
  }
}

/// A generated app on the default HMPSoC, as a bus or as a 3-column mesh,
/// with random valid configurations over every PE (PRR accelerators too).
class DrcTableFuzz : public ::testing::TestWithParam<plat::Topology> {
 protected:
  void SetUp() override {
    tg::GeneratorParams gp;
    gp.num_tasks = 30;
    util::Rng gen_rng(517);
    graph_ = tg::TgffGenerator(gp).generate(gen_rng);
    hw_ = plat::make_default_hmpsoc();
    plat::Interconnect ic = hw_.interconnect();
    ic.topology = GetParam();
    ic.mesh_columns = 3;
    // Bandwidths and overhead that make every term inexact, so a different
    // summation order would show in the low bits.
    ic.binary_bandwidth = 3000.0;
    ic.icap_bandwidth = 1234.5;
    ic.per_migration_overhead = 0.7;
    hw_.set_interconnect(ic);
    impls_ = rel::generate_implementations(graph_, hw_, rel::ImplGenParams{}, gen_rng);
    // A second, larger binary for the first implementation of every task, so
    // implementation-only changes on one PE occur.
    for (tg::TaskId t = 0; t < graph_.num_tasks(); ++t) {
      rel::Implementation alt = impls_.for_task(t).front();
      alt.binary_bytes = alt.binary_bytes * 3 / 2 + 64;
      impls_.add(t, alt);
    }
  }

  sched::Configuration random_config() {
    sched::Configuration cfg;
    cfg.tasks.resize(graph_.num_tasks());
    for (tg::TaskId t = 0; t < graph_.num_tasks(); ++t) {
      std::vector<std::pair<plat::PeId, std::size_t>> choices;
      for (const auto& pe : hw_.pes()) {
        for (std::size_t i : impls_.compatible_with(t, pe.type)) choices.emplace_back(pe.id, i);
      }
      const auto [pe, impl] = choices[rng_.index(choices.size())];
      cfg[t] = sched::TaskAssignment{pe, static_cast<std::uint32_t>(impl),
                                     static_cast<std::uint32_t>(rng_.index(4)),
                                     static_cast<std::int32_t>(rng_.index(30))};
    }
    return cfg;
  }

  /// `cfg` with some tasks switched to another implementation on the same PE
  /// (and free CLR/priority changes); counts the implementation-only changes.
  sched::Configuration impl_only_variant(sched::Configuration cfg, std::size_t* changes) {
    for (tg::TaskId t = 0; t < cfg.size(); ++t) {
      cfg[t].clr_index ^= 1u;
      const auto compat = impls_.compatible_with(t, hw_.pe(cfg[t].pe).type);
      if (compat.size() < 2 || rng_.index(2) == 0) continue;
      const std::size_t pick = compat[rng_.index(compat.size())];
      if (pick == cfg[t].impl_index) continue;
      cfg[t].impl_index = static_cast<std::uint32_t>(pick);
      ++*changes;
    }
    return cfg;
  }

  tg::TaskGraph graph_;
  plat::Platform hw_;
  rel::ImplementationSet impls_;
  util::Rng rng_{2024};
};

TEST_P(DrcTableFuzz, MatchesAverageDrcBitForBit) {
  const ReconfigModel model(hw_, impls_);
  std::size_t prr_cells = 0, plain_cells = 0, impl_only = 0, sources = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<sched::Configuration> targets(1 + rng_.index(8));
    for (auto& t : targets) t = random_config();
    for (const auto& target : targets) {
      for (const auto& a : target.tasks) {
        (hw_.pe(a.pe).prr != plat::Pe::kNoPrr ? prr_cells : plain_cells) += 1;
      }
    }
    const DrcTable table(model, targets);
    ASSERT_EQ(table.num_targets(), targets.size());

    std::vector<sched::Configuration> froms;
    for (int k = 0; k < 6; ++k) froms.push_back(random_config());
    for (const auto& target : targets) {
      froms.push_back(target);  // a source equal to a target
      froms.push_back(impl_only_variant(target, &impl_only));
    }
    for (const auto& from : froms) {
      const double expected = model.average_drc(from, targets);
      EXPECT_EQ(table.average_drc(from), expected) << "round " << round;
      ++sources;
    }
  }
  EXPECT_GT(prr_cells, 0u);
  EXPECT_GT(plain_cells, 0u);
  EXPECT_GT(impl_only, 0u);
  EXPECT_GT(sources, 100u);
}

TEST_P(DrcTableFuzz, SourcePeOutsideThePlatformThrows) {
  // The table always throws. On a bus the model itself does not notice: its
  // comm factor is 1.0 for any two distinct PEs, valid or not.
  const ReconfigModel model(hw_, impls_);
  const std::vector<sched::Configuration> targets{random_config(), random_config()};
  const DrcTable table(model, targets);
  auto from = targets.front();
  from[3].pe = static_cast<plat::PeId>(hw_.num_pes());
  EXPECT_THROW(table.average_drc(from), std::out_of_range);
  if (GetParam() == plat::Topology::Bus) {
    EXPECT_NO_THROW(model.average_drc(from, targets));
  } else {
    EXPECT_THROW(model.average_drc(from, targets), std::out_of_range);
  }
}

TEST_P(DrcTableFuzz, ConcurrentEvaluationsMatchTheModel) {
  const ReconfigModel model(hw_, impls_);
  std::vector<sched::Configuration> targets;
  for (int i = 0; i < 5; ++i) targets.push_back(random_config());
  const DrcTable table(model, targets);
  std::vector<sched::Configuration> froms;
  for (int i = 0; i < 64; ++i) froms.push_back(random_config());
  std::vector<double> expected;
  for (const auto& from : froms) expected.push_back(model.average_drc(from, targets));

  std::vector<std::size_t> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < mismatches.size(); ++w) {
    threads.emplace_back([&, w] {
      for (int rep = 0; rep < 20; ++rep) {
        for (std::size_t i = 0; i < froms.size(); ++i) {
          const std::size_t k = (i + w) % froms.size();
          if (table.average_drc(froms[k]) != expected[k]) ++mismatches[w];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t m : mismatches) EXPECT_EQ(m, 0u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, DrcTableFuzz,
                         ::testing::Values(plat::Topology::Bus, plat::Topology::Mesh2D),
                         [](const auto& info) {
                           return info.param == plat::Topology::Bus ? "Bus" : "Mesh";
                         });

TEST_F(ReconfigTest, DrcTableEmptyTargetSetReturnsZero) {
  ReconfigModel model(hw_, impls_);
  const DrcTable table(model, {});
  EXPECT_EQ(table.num_targets(), 0u);
  EXPECT_EQ(table.average_drc(base_config()), 0.0);
  sched::Configuration other_size;
  other_size.tasks.resize(5);
  EXPECT_EQ(table.average_drc(other_size), model.average_drc(other_size, {}));
}

TEST_F(ReconfigTest, DrcTableSizeMismatchThrows) {
  ReconfigModel model(hw_, impls_);
  const auto cfg = base_config();
  const DrcTable table(model, {cfg});
  sched::Configuration shorter;
  shorter.tasks.resize(1);
  EXPECT_THROW(model.average_drc(shorter, {cfg}), std::invalid_argument);
  EXPECT_THROW(table.average_drc(shorter), std::invalid_argument);
  EXPECT_THROW(DrcTable(model, {cfg, shorter}), std::invalid_argument);
}

TEST_F(ReconfigTest, DrcTableMatchesTheHandComputedCosts) {
  ReconfigModel model(hw_, impls_);
  const auto from = base_config();
  auto moved = from;
  moved[0].pe = pe1_;  // 2048 / 1024 + 2 = 4
  auto accel = from;
  accel[0].pe = pe_accel_;
  accel[0].impl_index = 1;  // 1024 / 1024 + 2 + bitstream 4096 / 512 = 11
  const DrcTable table(model, {from, moved, accel});
  EXPECT_EQ(table.average_drc(from), (0.0 + 4.0 + 11.0) / 3.0);
  EXPECT_EQ(table.average_drc(from), model.average_drc(from, {from, moved, accel}));
  // A source implementation index past the task's list matches no target.
  auto unknown_impl = from;
  unknown_impl[1].impl_index = 9;
  EXPECT_EQ(table.average_drc(unknown_impl), model.average_drc(unknown_impl, {from, moved, accel}));
}

TEST_F(ReconfigTest, DrcTableRejectsTargetsOutsideThePlatform) {
  ReconfigModel model(hw_, impls_);
  auto bad_pe = base_config();
  bad_pe[0].pe = 99;
  EXPECT_THROW(DrcTable(model, {bad_pe}), std::out_of_range);
  auto bad_impl = base_config();
  bad_impl[1].impl_index = 7;
  EXPECT_THROW(DrcTable(model, {bad_impl}), std::out_of_range);
}

}  // namespace
}  // namespace clr::recfg
