// Integration tests of the SCHED_HPC scheduling class inside the kernel:
// class ordering (RT > HPC > CFS > idle), low wakeup latency, iteration
// detection, heuristic convergence on an imbalanced pair, balanced-state
// freezing, and the Null mechanism fallback.

#include <gtest/gtest.h>

#include "hpcsched/hpcsched.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;

struct HpcFixture : KernelFixture {
  hpc::HpcSchedClass* cls = nullptr;

  explicit HpcFixture(hpc::HpcSchedConfig hc = {}, kern::KernelConfig kc = {})
      : KernelFixture(kc) {
    cls = &hpc::install_hpcsched(k(), hc);
    k().start();
  }
};

TEST(HpcClass, ClassSitsBetweenRtAndCfs) {
  HpcFixture f;
  const auto& classes = f.k().classes();
  ASSERT_EQ(classes.size(), 4u);
  EXPECT_STREQ(classes[0]->name(), "rt");
  EXPECT_STREQ(classes[1]->name(), "hpc");
  EXPECT_STREQ(classes[2]->name(), "fair");
  EXPECT_STREQ(classes[3]->name(), "idle");
}

TEST(HpcClass, HpcStarvesCfsButYieldsToRt) {
  HpcFixture f;
  auto& rt = f.k().create_task("rt", std::make_unique<PeriodicBody>(
                                          1.0e6, Duration::milliseconds(10)),
                               Policy::kFifo, 0);
  auto& hpcc = f.k().create_task("hpc", std::make_unique<HogBody>(), Policy::kHpcRr, 0);
  auto& cfs = f.k().create_task("cfs", std::make_unique<HogBody>(), Policy::kNormal, 0);
  for (auto* t : {&rt, &hpcc, &cfs}) {
    f.k().sched_setaffinity(*t, 0);
    f.k().start_task(*t);
  }
  f.run_until(Duration::seconds(1.0));
  f.k().flush_account(rt);
  f.k().flush_account(hpcc);
  f.k().flush_account(cfs);
  EXPECT_GT(rt.t_run, Duration::milliseconds(80));   // RT gets its periodic share
  EXPECT_GT(hpcc.t_run, Duration::milliseconds(800));  // HPC takes the rest
  EXPECT_LT(cfs.t_run, Duration::milliseconds(10));    // CFS starves behind HPC
}

TEST(HpcClass, LowWakeupLatencyVersusCfs) {
  HpcFixture f;
  auto& noise = f.k().create_task("noise", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& mpi = f.k().create_task("mpi", std::make_unique<PeriodicBody>(
                                           0.5e6, Duration::milliseconds(5)),
                                Policy::kHpcRr, 0);
  f.k().sched_setaffinity(noise, 0);
  f.k().sched_setaffinity(mpi, 0);
  f.k().start_task(noise);
  f.k().start_task(mpi);
  f.run_until(Duration::seconds(1.0));
  EXPECT_GT(mpi.nr_wakeups, 100);
  // An HPC wakeup preempts the CFS hog immediately: ~2 us dispatch cost.
  EXPECT_LT(mpi.wakeup_latency_us.mean(), 10.0);
}

TEST(HpcClass, RoundRobinSharesWithinClass) {
  hpc::HpcSchedConfig hc;
  hc.tunables.rr_slice = Duration::milliseconds(20);
  HpcFixture f(hc);
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kHpcRr, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kHpcRr, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(1.0));
  f.k().flush_account(a);
  f.k().flush_account(b);
  EXPECT_NEAR(a.t_run / (a.t_run + b.t_run), 0.5, 0.05);
}

TEST(HpcClass, FifoPolicyRunsToBlock) {
  HpcFixture f;
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kHpcFifo, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kHpcFifo, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(1.0));
  f.k().flush_account(a);
  f.k().flush_account(b);
  EXPECT_GT(a.t_run, Duration::milliseconds(990));
  EXPECT_LT(b.t_run, Duration::milliseconds(5));
}

// The heart of the paper: an imbalanced pair on one core converges to a
// stable priority split within the first iterations and stays there.
TEST(HpcConvergence, ImbalancedPairConvergesAndFreezes) {
  HpcFixture f;
  // An imbalanced SPMD pair: the light rank computes 10 ms then waits ~55 ms
  // for the heavy one (utilization ~20%); the heavy rank computes 40 ms and
  // barely waits (utilization ~95%).
  auto& light = f.k().create_task(
      "light", std::make_unique<PeriodicBody>(10.0e6, Duration::milliseconds(55)),
      Policy::kHpcRr, 0);
  auto& heavy = f.k().create_task(
      "heavy", std::make_unique<PeriodicBody>(40.0e6, Duration::milliseconds(2)),
      Policy::kHpcRr, 1);
  f.k().sched_setaffinity(light, 0);
  f.k().sched_setaffinity(heavy, 1);
  f.k().start_task(light);
  f.k().start_task(heavy);
  f.run_until(Duration::seconds(2.0));
  // The heavy task must have been promoted; the light one stays at 4.
  EXPECT_EQ(p5::to_int(heavy.hw_prio), 6);
  EXPECT_EQ(p5::to_int(light.hw_prio), 4);
  EXPECT_GT(f.cls->iterations_observed(), 10);
}

TEST(HpcConvergence, BalancedPairStaysAtDefault) {
  HpcFixture f;
  auto& a = f.k().create_task("a", std::make_unique<PeriodicBody>(
                                        20.0e6, Duration::milliseconds(2)),
                              Policy::kHpcRr, 0);
  auto& b = f.k().create_task("b", std::make_unique<PeriodicBody>(
                                        20.0e6, Duration::milliseconds(2)),
                              Policy::kHpcRr, 1);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 1);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(2.0));
  EXPECT_EQ(p5::to_int(a.hw_prio), 4);
  EXPECT_EQ(p5::to_int(b.hw_prio), 4);
  // Balanced application: the detector suppresses all priority changes.
  EXPECT_EQ(f.cls->priority_changes(), 0);
}

TEST(HpcConvergence, PrioritiesStayInsideConfiguredRange) {
  hpc::HpcSchedConfig hc;
  hc.tunables.min_prio = 4;
  hc.tunables.max_prio = 5;
  HpcFixture f(hc);
  auto& light = f.k().create_task("light", std::make_unique<PeriodicBody>(
                                                5.0e6, Duration::milliseconds(2)),
                                  Policy::kHpcRr, 0);
  auto& heavy = f.k().create_task("heavy", std::make_unique<PeriodicBody>(
                                                40.0e6, Duration::milliseconds(2)),
                                  Policy::kHpcRr, 1);
  f.k().sched_setaffinity(light, 0);
  f.k().sched_setaffinity(heavy, 1);
  f.k().start_task(light);
  f.k().start_task(heavy);
  f.run_until(Duration::seconds(2.0));
  EXPECT_LE(p5::to_int(heavy.hw_prio), 5);
  EXPECT_GE(p5::to_int(light.hw_prio), 4);
}

TEST(HpcClass, NullMechanismKeepsPolicyOnly) {
  kern::KernelConfig kc;
  kc.hw_prio_enabled = false;
  HpcFixture f({}, kc);
  auto& light = f.k().create_task("light", std::make_unique<PeriodicBody>(
                                                10.0e6, Duration::milliseconds(2)),
                                  Policy::kHpcRr, 0);
  auto& heavy = f.k().create_task("heavy", std::make_unique<PeriodicBody>(
                                                40.0e6, Duration::milliseconds(2)),
                                  Policy::kHpcRr, 1);
  f.k().sched_setaffinity(light, 0);
  f.k().sched_setaffinity(heavy, 1);
  f.k().start_task(light);
  f.k().start_task(heavy);
  f.run_until(Duration::seconds(1.0));
  // No hardware prioritization happens on a non-POWER architecture.
  EXPECT_EQ(p5::to_int(heavy.hw_prio), 4);
  EXPECT_EQ(f.cls->priority_changes(), 0);
  EXPECT_FALSE(heavy.exited());
}

TEST(HpcClass, SchedSetschedulerIntoHpc) {
  HpcFixture f;
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(50));
  EXPECT_TRUE(f.k().sched_setscheduler(t, Policy::kHpcRr));
  f.run_until(Duration::milliseconds(100));
  EXPECT_EQ(t.policy(), Policy::kHpcRr);
  f.k().flush_account(t);
  EXPECT_GT(t.t_run, Duration::milliseconds(90));
}

}  // namespace
}  // namespace hpcs::test
