// Scheduling domains and the per-class workload balancer: spreading tasks
// across contexts/cores, idle pull, pinned tasks stay put, per-domain-level
// equalization (paper §IV-A example: a core with 1 task pulls from a core
// with 3 so each core ends with 2).

#include <gtest/gtest.h>

#include "hpcsched/hpcsched.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;
using kern::Topology;

TEST(Domains, Power5Levels) {
  const Topology t = Topology::power5_chip(2);
  EXPECT_EQ(t.num_cpus(), 4);
  const auto& lv = t.domains_for(0);
  ASSERT_EQ(lv.size(), 2u);
  EXPECT_EQ(lv[0].level, "smt");
  ASSERT_EQ(lv[0].groups.size(), 2u);
  EXPECT_EQ(lv[0].groups[0], (std::vector<CpuId>{0}));
  EXPECT_EQ(lv[0].groups[1], (std::vector<CpuId>{1}));
  EXPECT_EQ(lv[1].level, "core");
  EXPECT_EQ(lv[1].groups[0], (std::vector<CpuId>{0, 1}));
  EXPECT_EQ(lv[1].groups[1], (std::vector<CpuId>{2, 3}));
  // CPU 3's SMT domain covers core 1.
  EXPECT_EQ(t.domains_for(3)[0].groups[0], (std::vector<CpuId>{2}));
}

TEST(Domains, SingleCoreHasOnlySmtLevel) {
  const Topology t = Topology::power5_chip(1);
  EXPECT_EQ(t.num_cpus(), 2);
  EXPECT_EQ(t.domains_for(0).size(), 1u);
}

TEST(Balancer, SpreadsHogsAcrossAllCpus) {
  KernelFixture f;
  f.k().start();
  // Four hogs all born on CPU 0: the balancer must spread them 1 per CPU.
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    auto& t = f.k().create_task("hog" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kNormal, 0);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(1.0));
  std::vector<int> per_cpu(4, 0);
  for (auto* t : tasks) ++per_cpu[static_cast<std::size_t>(t->cpu)];
  EXPECT_EQ(per_cpu, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_GT(f.k().migrations(), 0);
  // Each hog then runs ~100% of one context at SMT speed.
  for (auto* t : tasks) {
    f.k().flush_account(*t);
    EXPECT_GT(t->t_run, Duration::milliseconds(900)) << t->name();
  }
}

TEST(Balancer, CoreLevelEqualization) {
  KernelFixture f;
  f.k().start();
  // Paper §IV-A: one core with 1 task, the other with 3 -> pull to 2 and 2.
  std::vector<kern::Task*> tasks;
  tasks.push_back(&f.k().create_task("t0", std::make_unique<HogBody>(), Policy::kNormal, 0));
  tasks.push_back(&f.k().create_task("t1", std::make_unique<HogBody>(), Policy::kNormal, 2));
  tasks.push_back(&f.k().create_task("t2", std::make_unique<HogBody>(), Policy::kNormal, 2));
  tasks.push_back(&f.k().create_task("t3", std::make_unique<HogBody>(), Policy::kNormal, 2));
  for (auto* t : tasks) f.k().start_task(*t);
  f.run_until(Duration::seconds(1.0));
  int core0 = 0;
  int core1 = 0;
  for (auto* t : tasks) (t->cpu < 2 ? core0 : core1) += 1;
  EXPECT_EQ(core0, 2);
  EXPECT_EQ(core1, 2);
}

TEST(Balancer, PinnedTasksAreNotMigrated) {
  KernelFixture f;
  f.k().start();
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 3; ++i) {
    auto& t = f.k().create_task("pin" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kNormal, 0);
    f.k().sched_setaffinity(t, 0);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(1.0));
  for (auto* t : tasks) EXPECT_EQ(t->cpu, 0) << t->name();
  EXPECT_EQ(f.k().migrations(), 0);
}

TEST(Balancer, IdlePullTakesWorkQuickly) {
  KernelFixture f;
  f.k().start();
  // Two hogs on CPU 0; CPU 1 going idle must pull one instead of waiting for
  // the periodic balance.
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::milliseconds(300));
  EXPECT_NE(a.cpu, b.cpu);
  f.k().flush_account(a);
  f.k().flush_account(b);
  // Both run nearly continuously once spread.
  EXPECT_GT(a.t_run + b.t_run, Duration::milliseconds(500));
}

TEST(Balancer, NoPullWhenBalanced) {
  KernelFixture f;
  f.k().start();
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    auto& t = f.k().create_task("t" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kNormal, i);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(1.0));
  EXPECT_EQ(f.k().migrations(), 0) << "balanced placement must not churn";
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tasks[static_cast<std::size_t>(i)]->cpu, i);
}

// The balancer skips its domain walk unless another CPU has a *queued* task
// of the class: a CPU's count includes its running task, which cannot be
// stolen. These SCHED_HPC cases pin both sides of that count.

TEST(Balancer, HpcNewIdlePullTakesTheQueuedTask) {
  KernelFixture f;
  hpc::install_hpcsched(f.k());
  f.k().start();
  // CPU 0 runs one HPC hog and queues the other. The short task on CPU 1
  // exits after ~5 ms, long before the first periodic balance (tick 61), so
  // CPU 1's new-idle pass must see the queued hog behind the running one.
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kHpcRr, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kHpcRr, 0);
  auto& s = f.k().create_task(
      "short", std::make_unique<ScriptBody>(std::vector<Act>{Act::compute(3.0e6)}),
      Policy::kHpcRr, 1);
  for (auto* t : {&a, &b, &s}) f.k().start_task(*t);
  f.run_until(Duration::milliseconds(30));
  EXPECT_TRUE(s.exited());
  EXPECT_NE(a.cpu, b.cpu);
  EXPECT_EQ(f.k().balance_pulls(), 1);
  EXPECT_EQ(f.k().migrations(), 1);
}

TEST(Balancer, HpcOneRunningTaskPerCpuNeverMigrates) {
  KernelFixture f;
  hpc::install_hpcsched(f.k());
  f.k().start();
  // Every CPU counts one HPC task, and it is the running one: nothing is
  // queued anywhere, so no balance pass may move a task.
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    auto& t = f.k().create_task("h" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kHpcRr, i);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(1.0));
  EXPECT_EQ(f.k().migrations(), 0);
  EXPECT_EQ(f.k().balance_pulls(), 0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tasks[static_cast<std::size_t>(i)]->cpu, i);
}

}  // namespace
}  // namespace hpcs::test
