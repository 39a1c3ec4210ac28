// O(1) scheduler tests: priority-array mechanics (bitmap lookup, zero-cost
// array swap), time-slice scaling, interactivity bonus, starvation freedom,
// nice-based prioritization, and the CFS-vs-O(1) latency comparison the
// paper's §III motivates.

#include <gtest/gtest.h>

#include "hpcsched/hpcsched.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::FairScheduler;
using kern::O1Class;
using kern::Policy;

kern::KernelConfig o1_config() {
  kern::KernelConfig cfg;
  cfg.fair_scheduler = FairScheduler::kO1;
  return cfg;
}

TEST(O1Unit, StaticLevels) {
  EXPECT_EQ(O1Class::static_level(0), 20);
  EXPECT_EQ(O1Class::static_level(-20), 0);
  EXPECT_EQ(O1Class::static_level(19), 39);
}

TEST(O1Unit, TimesliceScalesWithNice) {
  O1Class cls;
  kern::Task hi(1, "hi", Policy::kNormal);
  hi.nice = -20;
  kern::Task mid(2, "mid", Policy::kNormal);
  kern::Task lo(3, "lo", Policy::kNormal);
  lo.nice = 19;
  EXPECT_EQ(cls.timeslice(mid), Duration::milliseconds(100));
  EXPECT_EQ(cls.timeslice(hi), Duration::milliseconds(200));
  EXPECT_LT(cls.timeslice(lo), Duration::milliseconds(10));
  EXPECT_GE(cls.timeslice(lo), O1Class::kMinSlice);
}

TEST(O1Sched, TwoHogsShareViaArraySwap) {
  KernelFixture f(o1_config());
  f.k().start();
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(2.0));
  f.k().flush_account(a);
  f.k().flush_account(b);
  EXPECT_NEAR(a.t_run / (a.t_run + b.t_run), 0.5, 0.05);
  // The expired/active swap happened repeatedly (100ms slices, 2s run).
  auto* cls = static_cast<O1Class*>(f.k().class_for(Policy::kNormal));
  EXPECT_GT(cls->array_swaps(f.k().rq(0)), 5);
}

TEST(O1Sched, NiceBiasesShare) {
  KernelFixture f(o1_config());
  f.k().start();
  auto& heavy = f.k().create_task("heavy", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& light = f.k().create_task("light", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(heavy, 0);
  f.k().sched_setaffinity(light, 0);
  f.k().set_nice(heavy, -10);
  f.k().set_nice(light, 10);
  f.k().start_task(heavy);
  f.k().start_task(light);
  f.run_until(Duration::seconds(2.0));
  f.k().flush_account(heavy);
  f.k().flush_account(light);
  // O(1): different dynamic priorities mean the higher one dominates until
  // its slice expires; the nice -10 task must clearly dominate.
  EXPECT_GT(heavy.t_run / (heavy.t_run + light.t_run), 0.7);
  // ...but the low-priority task must not starve (array swap guarantees).
  EXPECT_GT(light.t_run, Duration::milliseconds(50));
}

TEST(O1Sched, InteractiveSleeperGetsBonus) {
  KernelFixture f(o1_config());
  f.k().start();
  auto& hog = f.k().create_task("hog", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& inter = f.k().create_task(
      "inter", std::make_unique<PeriodicBody>(0.2e6, Duration::milliseconds(20)),
      Policy::kNormal, 0);
  f.k().sched_setaffinity(hog, 0);
  f.k().sched_setaffinity(inter, 0);
  f.k().start_task(hog);
  f.k().start_task(inter);
  f.run_until(Duration::seconds(3.0));
  EXPECT_GT(inter.nr_wakeups, 80);
  // The sleeper accumulates sleep_avg -> negative bonus -> wakeup-preempts
  // the hog: latency far below the hog's 100ms slice.
  EXPECT_LT(inter.wakeup_latency_us.mean(), 20000.0);
  f.k().flush_account(inter);
  EXPECT_GT(inter.t_run, Duration::milliseconds(20));
}

TEST(O1Sched, BatchNeverGetsInteractiveBonus) {
  KernelFixture f(o1_config());
  f.k().start();
  auto& batch = f.k().create_task(
      "batch", std::make_unique<PeriodicBody>(0.2e6, Duration::milliseconds(20)),
      Policy::kBatch, 0);
  auto& hog = f.k().create_task("hog", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(batch, 0);
  f.k().sched_setaffinity(hog, 0);
  f.k().start_task(hog);
  f.k().start_task(batch);
  f.run_until(Duration::seconds(2.0));
  auto* cls = static_cast<O1Class*>(f.k().class_for(Policy::kNormal));
  // The batch sleeper never gets a better dynamic level than its static one.
  EXPECT_GE(cls->dynamic_level(batch), O1Class::static_level(0));
}

TEST(O1Sched, EightHogsNoStarvation) {
  KernelFixture f(o1_config());
  f.k().start();
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    auto& t = f.k().create_task("t" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kNormal, 0);
    f.k().sched_setaffinity(t, 0);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(4.0));
  for (auto* t : tasks) {
    f.k().flush_account(*t);
    EXPECT_GT(t->t_run, Duration::milliseconds(200)) << t->name() << " starved";
  }
}

TEST(O1Sched, WorksUnderneathHpcsched) {
  // HPCSched is fair-scheduler agnostic: installing it over the O(1) class
  // must balance an imbalanced pair exactly as over CFS.
  sim::Simulator s;
  kern::Kernel k(s, o1_config());
  hpc::install_hpcsched(k, {});
  k.start();
  auto& light = k.create_task("light", std::make_unique<PeriodicBody>(
                                            10.0e6, Duration::milliseconds(55)),
                              Policy::kHpcRr, 0);
  auto& heavy = k.create_task("heavy", std::make_unique<PeriodicBody>(
                                            40.0e6, Duration::milliseconds(2)),
                              Policy::kHpcRr, 1);
  k.sched_setaffinity(light, 0);
  k.sched_setaffinity(heavy, 1);
  k.start_task(light);
  k.start_task(heavy);
  s.run(SimTime(std::int64_t{2} * 1000000000));
  EXPECT_EQ(p5::to_int(heavy.hw_prio), 6);
  EXPECT_EQ(p5::to_int(light.hw_prio), 4);
}

TEST(O1VsCfs, SleeperLatencyComparison) {
  // §III motivation: both schedulers give an interactive sleeper reasonable
  // latency under load; this pins the comparison so regressions surface.
  auto run_with = [](FairScheduler fs) {
    kern::KernelConfig cfg;
    cfg.fair_scheduler = fs;
    KernelFixture f(cfg);
    f.k().start();
    auto& hog = f.k().create_task("hog", std::make_unique<HogBody>(), Policy::kNormal, 0);
    auto& sleeper = f.k().create_task(
        "sleeper", std::make_unique<PeriodicBody>(0.2e6, Duration::milliseconds(10)),
        Policy::kNormal, 0);
    f.k().sched_setaffinity(hog, 0);
    f.k().sched_setaffinity(sleeper, 0);
    f.k().start_task(hog);
    f.k().start_task(sleeper);
    f.run_until(Duration::seconds(2.0));
    return sleeper.wakeup_latency_us.mean();
  };
  const double cfs_lat = run_with(FairScheduler::kCfs);
  const double o1_lat = run_with(FairScheduler::kO1);
  EXPECT_LT(cfs_lat, 10000.0);
  EXPECT_LT(o1_lat, 30000.0);
}

}  // namespace
}  // namespace hpcs::test
