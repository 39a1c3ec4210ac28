// CFS class behaviour: the run queue's ordering contract, fairness between
// competing hogs, nice weighting, vruntime mechanics, wakeup preemption,
// slice computation, min_vruntime monotonicity.

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::CfsClass;
using kern::Policy;

TEST(CfsWeights, CanonicalTable) {
  EXPECT_EQ(CfsClass::nice_to_weight(0), 1024);
  EXPECT_EQ(CfsClass::nice_to_weight(-20), 88761);
  EXPECT_EQ(CfsClass::nice_to_weight(19), 15);
  // Each nice step is ~1.25x.
  for (int n = -20; n < 19; ++n) {
    const double ratio = static_cast<double>(CfsClass::nice_to_weight(n)) /
                         static_cast<double>(CfsClass::nice_to_weight(n + 1));
    EXPECT_NEAR(ratio, 1.25, 0.07) << "nice " << n;
  }
}

TEST(CfsWeights, CalcDeltaFair) {
  const Duration d = Duration::milliseconds(10);
  EXPECT_EQ(CfsClass::calc_delta_fair(d, 0), d);                    // weight 1024
  EXPECT_LT(CfsClass::calc_delta_fair(d, -5).ns(), d.ns());         // heavier: slower vruntime
  EXPECT_GT(CfsClass::calc_delta_fair(d, 5).ns(), d.ns());          // lighter: faster vruntime
}

TEST(CfsClassTest, SliceShrinksWithLoad) {
  CfsClass cfs;
  EXPECT_EQ(cfs.slice_for(1), Duration::milliseconds(20));
  EXPECT_EQ(cfs.slice_for(2), Duration::milliseconds(10));
  EXPECT_EQ(cfs.slice_for(5), Duration::milliseconds(4));
  // Floor at kMinGranularity.
  EXPECT_EQ(cfs.slice_for(50), Duration::milliseconds(4));
}

// One CPU's CFS run queue, driven directly through the class hooks.
// Vruntimes stay within latency/2 of each other, so enqueue's placement
// floor leaves them as set.
struct CfsQueue {
  KernelFixture f;
  CfsClass cfs;
  kern::Rq rq;
  kern::Task a{1, "a", Policy::kNormal};
  kern::Task b{2, "b", Policy::kNormal};
  kern::Task c{3, "c", Policy::kNormal};
  kern::Task d{4, "d", Policy::kNormal};

  CfsQueue() {
    cfs.set_index(0);
    rq.class_rqs.push_back(cfs.make_rq());
    rq.class_count.push_back(0);
    a.vruntime = Duration::milliseconds(4);
    b.vruntime = Duration::milliseconds(2);
    c.vruntime = Duration::milliseconds(4);
    d.vruntime = Duration::milliseconds(6);
    // Out of key order; c before a, which ties with it on vruntime.
    for (kern::Task* t : {&d, &c, &b, &a}) cfs.enqueue(f.k(), rq, *t, /*wakeup=*/false);
  }

  std::vector<kern::Task*> drain() {
    std::vector<kern::Task*> order;
    while (kern::Task* t = cfs.pick_next(f.k(), rq)) order.push_back(t);
    return order;
  }
};

TEST(CfsQueueContract, PicksByVruntimeThenPid) {
  CfsQueue q;
  EXPECT_EQ(q.a.vruntime, Duration::milliseconds(4));
  EXPECT_EQ(q.drain(), (std::vector<kern::Task*>{&q.b, &q.a, &q.c, &q.d}));
}

TEST(CfsQueueContract, StealsLargestKeyUnpinnedTask) {
  CfsQueue q;
  EXPECT_EQ(q.cfs.steal_candidate(q.f.k(), q.rq), &q.d);
  q.d.pinned_cpu = 0;
  q.c.pinned_cpu = 0;
  EXPECT_EQ(q.cfs.steal_candidate(q.f.k(), q.rq), &q.a);
  // Choosing a candidate leaves the queue as it was.
  EXPECT_EQ(q.drain(), (std::vector<kern::Task*>{&q.b, &q.a, &q.c, &q.d}));
  EXPECT_EQ(q.cfs.steal_candidate(q.f.k(), q.rq), nullptr);
}

TEST(CfsQueueContract, DequeueOfRunningTaskLeavesQueue) {
  CfsQueue q;
  kern::Task* running = q.cfs.pick_next(q.f.k(), q.rq);
  ASSERT_EQ(running, &q.b);
  q.rq.curr = running;
  q.cfs.dequeue(q.f.k(), q.rq, *running, /*sleep=*/true);
  EXPECT_EQ(q.cfs.steal_candidate(q.f.k(), q.rq), &q.d);
  EXPECT_EQ(q.drain(), (std::vector<kern::Task*>{&q.a, &q.c, &q.d}));
}

TEST(CfsQueueContractDeathTest, EnqueueOfQueuedTaskDies) {
  CfsQueue q;
  EXPECT_DEATH(q.cfs.enqueue(q.f.k(), q.rq, q.c, /*wakeup=*/false),
               "duplicate task in CFS tree");
}

TEST(CfsFairness, TwoHogsShareOneCpuEvenly) {
  KernelFixture f;
  f.k().start();
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(1.0));
  f.k().flush_account(a);
  f.k().flush_account(b);
  const double share_a = a.t_run / (a.t_run + b.t_run);
  EXPECT_NEAR(share_a, 0.5, 0.03);
  EXPECT_GT(a.nr_switches, 10);
}

TEST(CfsFairness, ThreeHogsShareOneCpuEvenly) {
  KernelFixture f;
  f.k().start();
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 3; ++i) {
    auto& t = f.k().create_task("hog" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kNormal, 0);
    f.k().sched_setaffinity(t, 0);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(1.5));
  Duration total = Duration::zero();
  for (auto* t : tasks) {
    f.k().flush_account(*t);
    total += t->t_run;
  }
  for (auto* t : tasks) {
    EXPECT_NEAR(t->t_run / total, 1.0 / 3.0, 0.04) << t->name();
  }
}

TEST(CfsFairness, NiceWeightsBiasCpuShare) {
  KernelFixture f;
  f.k().start();
  auto& heavy = f.k().create_task("heavy", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& light = f.k().create_task("light", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(heavy, 0);
  f.k().sched_setaffinity(light, 0);
  f.k().set_nice(heavy, -5);
  f.k().set_nice(light, 5);
  f.k().start_task(heavy);
  f.k().start_task(light);
  f.run_until(Duration::seconds(2.0));
  f.k().flush_account(heavy);
  f.k().flush_account(light);
  // weight(-5)/weight(5) = 3121/335 ~ 9.3.
  const double ratio = heavy.t_run / light.t_run;
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 15.0);
}

TEST(CfsLatency, SleeperGetsCpuQuicklyUnderLoad) {
  KernelFixture f;
  f.k().start();
  auto& hog = f.k().create_task("hog", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& sleeper = f.k().create_task(
      "sleeper", std::make_unique<PeriodicBody>(0.2e6, Duration::milliseconds(20)),
      Policy::kNormal, 0);
  f.k().sched_setaffinity(hog, 0);
  f.k().sched_setaffinity(sleeper, 0);
  f.k().start_task(hog);
  f.k().start_task(sleeper);
  f.run_until(Duration::seconds(1.0));
  EXPECT_GT(sleeper.wakeup_latency_us.count(), 10);
  // Sleeper credit + tick preemption bound the latency to a few ms.
  EXPECT_LT(sleeper.wakeup_latency_us.mean(), 6000.0);
  EXPECT_FALSE(sleeper.exited());
  f.k().flush_account(sleeper);
  EXPECT_GT(sleeper.t_run, Duration::milliseconds(5));
}

TEST(CfsLatency, NoStarvationWithManyTasks) {
  KernelFixture f;
  f.k().start();
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    auto& t = f.k().create_task("t" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kNormal, 0);
    f.k().sched_setaffinity(t, 0);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(2.0));
  for (auto* t : tasks) {
    f.k().flush_account(*t);
    EXPECT_GT(t->t_run, Duration::milliseconds(100)) << t->name() << " starved";
  }
}

TEST(CfsBatch, BatchYieldsToNormal) {
  KernelFixture f;
  f.k().start();
  auto& batch = f.k().create_task("batch", std::make_unique<HogBody>(), Policy::kBatch, 0);
  auto& normal = f.k().create_task(
      "normal", std::make_unique<PeriodicBody>(0.2e6, Duration::milliseconds(5)),
      Policy::kNormal, 0);
  f.k().sched_setaffinity(batch, 0);
  f.k().sched_setaffinity(normal, 0);
  f.k().start_task(batch);
  f.k().start_task(normal);
  f.run_until(Duration::seconds(1.0));
  // The interactive task wakes ~200x and always preempts batch promptly.
  EXPECT_GT(normal.nr_wakeups, 100);
  EXPECT_LT(normal.wakeup_latency_us.mean(), 2000.0);
}

}  // namespace
}  // namespace hpcs::test
