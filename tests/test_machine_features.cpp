// Tests for the machine-level features beyond the basic model: the spinning
// idle sibling, multi-chip topologies with the chip domain level, and
// chip-level workload balancing.

#include <gtest/gtest.h>

#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;
using kern::Topology;

TEST(SpinIdle, IdleSiblingKeepsContending) {
  KernelFixture f;  // default: the idle context spins at priority 4
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<ScriptBody>(std::vector<Act>{
                                        Act::compute(10.0e6)}),
                              Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(100));
  ASSERT_TRUE(t.exited());
  EXPECT_NEAR(t.t_run.ms(), 10.0 / 0.65, 0.5);
}

TEST(MultiChip, TopologyHasThreeLevels) {
  const Topology t = Topology::power5_system(2, 2);
  EXPECT_EQ(t.num_cpus(), 8);
  const auto& lv = t.domains_for(0);
  ASSERT_EQ(lv.size(), 3u);
  EXPECT_EQ(lv[0].level, "smt");
  EXPECT_EQ(lv[1].level, "core");
  EXPECT_EQ(lv[2].level, "chip");
  // CPU 0's core level covers only chip 0's cores.
  EXPECT_EQ(lv[1].groups.size(), 2u);
  EXPECT_EQ(lv[1].groups[0], (std::vector<CpuId>{0, 1}));
  EXPECT_EQ(lv[1].groups[1], (std::vector<CpuId>{2, 3}));
  // Chip level: two groups of four CPUs.
  EXPECT_EQ(lv[2].groups[0], (std::vector<CpuId>{0, 1, 2, 3}));
  EXPECT_EQ(lv[2].groups[1], (std::vector<CpuId>{4, 5, 6, 7}));
  // CPU 5's core level covers chip 1's cores.
  EXPECT_EQ(t.domains_for(5)[1].groups[0], (std::vector<CpuId>{4, 5}));
}

TEST(MultiChip, BalancerSpreadsAcrossChips) {
  kern::KernelConfig cfg;
  cfg.num_chips = 2;
  KernelFixture f(cfg);
  f.k().start();
  EXPECT_EQ(f.k().num_cpus(), 8);
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    auto& t = f.k().create_task("hog" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kNormal, 0);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(2.0));
  std::vector<int> per_cpu(8, 0);
  for (auto* t : tasks) ++per_cpu[static_cast<std::size_t>(t->cpu)];
  for (int c = 0; c < 8; ++c) EXPECT_EQ(per_cpu[static_cast<std::size_t>(c)], 1) << "cpu " << c;
}

TEST(MultiChip, SmtPhysicsStaysCoreLocal) {
  kern::KernelConfig cfg;
  cfg.num_chips = 2;
  KernelFixture f(cfg);
  f.k().start();
  // Tasks on different chips never share decode bandwidth.
  auto& a = f.k().create_task("a", std::make_unique<ScriptBody>(std::vector<Act>{
                                        Act::compute(13.0e6)}),
                              Policy::kNormal, 0);
  auto& b = f.k().create_task("b", std::make_unique<ScriptBody>(std::vector<Act>{
                                        Act::compute(13.0e6)}),
                              Policy::kNormal, 4);  // chip 1
  f.k().request_hw_prio(a, p5::HwPrio::kHigh);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::milliseconds(100));
  ASSERT_TRUE(a.exited() && b.exited());
  // b is unaffected by a's priority 6 (equal SMT speed vs. its spin idle).
  EXPECT_NEAR(b.t_run.ms(), 13.0 / 0.65, 0.5);
}

}  // namespace
}  // namespace hpcs::test
