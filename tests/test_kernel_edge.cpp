// Kernel edge cases: affinity of running/sleeping tasks, policy changes in
// every state, spurious wakeups, zero-length sleeps, yield semantics, CFS
// knob effects, tick accounting at boundaries, the Scheduler Core's
// pick_next contract, and the Hybrid heuristic's future-work promise (good
// on both constant and dynamic workloads).

#include <algorithm>
#include <deque>

#include <gtest/gtest.h>

#include "analysis/paper_experiments.h"
#include "hpcsched/hpcsched.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;

TEST(KernelEdge, AffinityOfSleepingTaskMovesImmediately) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  // Still sleeping (never started): affinity moves it directly.
  EXPECT_TRUE(f.k().sched_setaffinity(t, 3));
  EXPECT_EQ(t.cpu, 3);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(50));
  EXPECT_EQ(t.cpu, 3);
}

TEST(KernelEdge, AffinityOfRunningTaskAppliesAtNextWakeup) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<PeriodicBody>(
                                        2.0e6, Duration::milliseconds(5)),
                              Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(2));  // mid-compute
  EXPECT_TRUE(f.k().sched_setaffinity(t, 2));
  f.run_until(Duration::milliseconds(50));
  EXPECT_EQ(t.cpu, 2);
  EXPECT_EQ(t.pinned_cpu, 2);
}

TEST(KernelEdge, InvalidAffinityRejected) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  EXPECT_FALSE(f.k().sched_setaffinity(t, 99));
  EXPECT_FALSE(f.k().sched_setaffinity(t, -7));
  EXPECT_TRUE(f.k().sched_setaffinity(t, kInvalidCpu));  // clears the pin
}

TEST(KernelEdge, WakeOfRunnableTaskIsNoop) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(5));
  const auto wakeups_before = t.nr_wakeups;
  f.k().wake(t);  // already runnable
  f.k().wake(t);
  f.run_until(Duration::milliseconds(10));
  EXPECT_EQ(t.nr_wakeups, wakeups_before);
}

TEST(KernelEdge, ZeroSleepIsAnImmediateYieldToWakeup) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task(
      "t",
      std::make_unique<ScriptBody>(std::vector<Act>{
          Act::compute(1.0e6), Act::sleep(Duration::zero()), Act::compute(1.0e6)}),
      Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(50));
  EXPECT_TRUE(t.exited());
  EXPECT_LT(t.t_sleep, Duration::milliseconds(1));
}

TEST(KernelEdge, WakeDuringSleepLeavesTheNextSleepWhole) {
  // Woken at 2 ms out of a 10 ms sleep, the task sleeps 10 ms again: the
  // first sleep's expiry (about 10 ms) must not end the second one early.
  KernelFixture f;
  f.k().start();
  SimTime resumed = SimTime::zero();
  std::vector<Act> acts{Act::compute(1.0e5), Act::sleep(Duration::milliseconds(10)),
                        Act::compute(1.0e5), Act::sleep(Duration::milliseconds(10)),
                        Act::compute(1.0e5)};
  acts.back().on_issue = [&] { resumed = f.k().now(); };
  auto& t = f.k().create_task("t", std::make_unique<ScriptBody>(std::move(acts)),
                              Policy::kNormal, 0);
  f.k().start_task(t);
  f.sim.schedule_at(SimTime::zero() + Duration::milliseconds(2), [&] { f.k().wake(t); });
  f.run_until(Duration::milliseconds(50));
  EXPECT_TRUE(t.exited());
  EXPECT_GT(resumed, SimTime::zero() + Duration::milliseconds(12));
}

TEST(KernelEdge, YieldRotatesHpcRoundRobin) {
  sim::Simulator s;
  kern::Kernel k(s, {});
  hpc::install_hpcsched(k, {});
  k.start();
  // A yielding HPC task shares with its peer even without slice expiry.
  auto& yielder = k.create_task(
      "yielder",
      std::make_unique<ScriptBody>(std::vector<Act>{
          Act::compute(5.0e6), Act::yield(), Act::compute(5.0e6), Act::yield(),
          Act::compute(5.0e6)}),
      Policy::kHpcRr, 0);
  auto& peer = k.create_task("peer", std::make_unique<HogBody>(), Policy::kHpcRr, 0);
  k.sched_setaffinity(yielder, 0);
  k.sched_setaffinity(peer, 0);
  k.start_task(yielder);
  k.start_task(peer);
  s.run(SimTime(2000000000));
  EXPECT_TRUE(yielder.exited());
  k.flush_account(peer);
  EXPECT_GT(peer.t_run, Duration::milliseconds(10));
}

// A FIFO class owning the SCHED_HPC policies that counts every pick_next it
// receives while the Scheduler Core counts no runnable task of it on that
// rq — a call the contract on SchedClass::pick_next rules out.
struct CountingRq final : kern::ClassRq {
  std::deque<kern::Task*> queue;
};

class CountingClass final : public kern::SchedClass {
 public:
  [[nodiscard]] const char* name() const override { return "counting"; }
  [[nodiscard]] bool owns(Policy p) const override { return kern::is_hpc_policy(p); }
  [[nodiscard]] std::unique_ptr<kern::ClassRq> make_rq() const override {
    return std::make_unique<CountingRq>();
  }
  void enqueue(kern::Kernel&, kern::Rq& rq, kern::Task& t, bool) override {
    queue(rq).push_back(&t);
  }
  void dequeue(kern::Kernel&, kern::Rq& rq, kern::Task& t, bool) override {
    auto& q = queue(rq);
    q.erase(std::remove(q.begin(), q.end(), &t), q.end());
  }
  kern::Task* pick_next(kern::Kernel&, kern::Rq& rq) override {
    ++picks;
    if (rq.class_count[static_cast<std::size_t>(index())] == 0) ++picks_while_empty;
    auto& q = queue(rq);
    if (q.empty()) return nullptr;
    kern::Task* t = q.front();
    q.pop_front();
    return t;
  }
  void put_prev(kern::Kernel&, kern::Rq& rq, kern::Task& t) override {
    queue(rq).push_front(&t);
  }
  void task_tick(kern::Kernel&, kern::Rq&, kern::Task&) override {}
  [[nodiscard]] bool wakeup_preempt(kern::Kernel&, kern::Rq&, kern::Task&,
                                    kern::Task&) override {
    return false;
  }

  int picks = 0;
  int picks_while_empty = 0;

 private:
  std::deque<kern::Task*>& queue(kern::Rq& rq) const {
    return static_cast<CountingRq&>(*rq.class_rqs[static_cast<std::size_t>(index())]).queue;
  }
};
HPCS_ASSERT_SCHED_CLASS(CountingClass);

TEST(KernelContract, PickNextOnlyReachesAClassWithRunnableTasks) {
  KernelFixture f;
  auto& cls = static_cast<CountingClass&>(
      f.k().add_class_before_cfs(std::make_unique<CountingClass>()));
  f.k().start();
  // The class's tasks compute, sleep and wake on two CPUs while a CFS hog
  // keeps a third switching, so every CPU reschedules with and without a
  // task of the class.
  std::vector<kern::Task*> tasks;
  for (CpuId cpu = 0; cpu < 2; ++cpu) {
    tasks.push_back(&f.k().create_task(
        "c" + std::to_string(cpu),
        std::make_unique<ScriptBody>(std::vector<Act>{
            Act::compute(2.0e6), Act::sleep(Duration::milliseconds(5)), Act::compute(2.0e6)}),
        Policy::kHpcFifo, cpu));
  }
  auto& hog = f.k().create_task("hog", std::make_unique<HogBody>(), Policy::kNormal, 2);
  for (auto* t : tasks) f.k().start_task(*t);
  f.k().start_task(hog);
  f.run_until(Duration::milliseconds(100));
  EXPECT_EQ(cls.picks_while_empty, 0);
  EXPECT_GT(cls.picks, 0);
  for (auto* t : tasks) {
    EXPECT_TRUE(t->exited()) << t->name();
    EXPECT_GT(t->t_run, Duration::milliseconds(4)) << t->name();
  }
}

TEST(KernelEdge, CfsLatencyKnobChangesSliceBehaviour) {
  kern::KernelConfig cfg;
  cfg.cfs.latency = Duration::milliseconds(4);
  KernelFixture f(cfg);
  f.k().start();
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(1.0));
  // 4 ms latency with the 4 ms kMinGranularity floor -> ~2 ms slices floor
  // to kMinGranularity; many more switches than the default 10 ms slices.
  EXPECT_GT(a.nr_switches, 100);
}

TEST(KernelEdge, PolicyChangeWhileSleepingTakesEffectOnWake) {
  sim::Simulator s;
  kern::Kernel k(s, {});
  hpc::install_hpcsched(k, {});
  k.start();
  auto& t = k.create_task("t", std::make_unique<PeriodicBody>(
                                    1.0e6, Duration::milliseconds(10)),
                          Policy::kNormal, 0);
  k.start_task(t);
  s.run(SimTime(3000000));  // let it block
  EXPECT_TRUE(k.sched_setscheduler(t, Policy::kHpcRr));
  s.run(SimTime(100000000));
  EXPECT_EQ(t.policy(), Policy::kHpcRr);
  EXPECT_FALSE(t.exited());
  // It kept running fine across the class change.
  k.flush_account(t);
  EXPECT_GT(t.t_run, Duration::milliseconds(5));
}

TEST(KernelEdge, RequestSamePriorityIsFreeNoop) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(5));
  const auto writes = f.k().isa().writes();
  f.k().request_hw_prio(t, t.hw_prio);  // same value
  EXPECT_EQ(f.k().isa().writes(), writes);
}

// Future-work goal (paper §VI): one heuristic good on constant AND dynamic
// applications. Hybrid must be within striking distance of the specialist
// on each side.
TEST(HybridHeuristic, HandlesBothRegimes) {
  auto mb = analysis::MetBenchExperiment::paper();
  mb.workload.iterations = 12;
  for (auto& l : mb.workload.loads) l /= 4.0;
  const auto mb_base = analysis::run_metbench(mb, analysis::SchedMode::kBaselineCfs);
  const auto mb_uni = analysis::run_metbench(mb, analysis::SchedMode::kUniform);
  const auto mb_hyb = analysis::run_metbench(mb, analysis::SchedMode::kHybrid);
  EXPECT_GT(analysis::improvement_pct(mb_base, mb_hyb),
            analysis::improvement_pct(mb_base, mb_uni) - 4.0)
      << "hybrid must stay close to Uniform on a constant app";

  auto var = analysis::MetBenchVarExperiment::paper();
  var.workload.iterations = 24;
  var.workload.k = 8;
  for (auto& l : var.workload.loads_a) l /= 8.0;
  for (auto& l : var.workload.loads_b) l /= 8.0;
  const auto v_base = analysis::run_metbenchvar(var, analysis::SchedMode::kBaselineCfs);
  const auto v_ada = analysis::run_metbenchvar(var, analysis::SchedMode::kAdaptive);
  const auto v_hyb = analysis::run_metbenchvar(var, analysis::SchedMode::kHybrid);
  EXPECT_GT(analysis::improvement_pct(v_base, v_hyb),
            analysis::improvement_pct(v_base, v_ada) - 4.0)
      << "hybrid must stay close to Adaptive on a dynamic app";
}

}  // namespace
}  // namespace hpcs::test
