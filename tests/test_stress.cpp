// Stress/property tests of the whole kernel under randomized mixed
// workloads: RT + HPC + CFS tasks with random bodies, random policy flips
// and affinity changes mid-run. Invariants: nothing crashes, accounting is
// conserved, RT never starves behind lower classes, HPC priorities stay in
// range, all finite tasks finish.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hpcsched/hpcsched.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;

class MixedStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedStress, RandomizedMixRunsClean) {
  Rng rng(GetParam());
  sim::Simulator s;
  kern::KernelConfig kc;
  kc.fair_scheduler =
      rng.uniform() < 0.5 ? kern::FairScheduler::kCfs : kern::FairScheduler::kO1;
  kern::Kernel k(s, kc);
  auto& hpc_cls = hpc::install_hpcsched(k, {});
  k.start();

  std::vector<kern::Task*> finite;
  std::vector<kern::Task*> all;
  const int n = static_cast<int>(rng.uniform_int(6, 14));
  for (int i = 0; i < n; ++i) {
    const double dice = rng.uniform();
    Policy policy = Policy::kNormal;
    if (dice < 0.2) {
      policy = Policy::kRr;
    } else if (dice < 0.5) {
      policy = rng.uniform() < 0.5 ? Policy::kHpcRr : Policy::kHpcFifo;
    } else if (dice < 0.6) {
      policy = Policy::kBatch;
    }
    const auto cpu = static_cast<CpuId>(rng.uniform_int(0, 3));
    std::unique_ptr<kern::TaskBody> body;
    const bool is_finite = rng.uniform() < 0.5;
    if (is_finite) {
      std::vector<Act> acts;
      const int segs = static_cast<int>(rng.uniform_int(1, 6));
      for (int g = 0; g < segs; ++g) {
        acts.push_back(Act::compute(rng.uniform(0.1e6, 20.0e6)));
        if (rng.uniform() < 0.5) {
          acts.push_back(Act::sleep(Duration(static_cast<std::int64_t>(
              rng.uniform(0.1e6, 20.0e6)))));
        }
      }
      body = std::make_unique<ScriptBody>(std::move(acts));
    } else {
      body = std::make_unique<PeriodicBody>(
          rng.uniform(0.1e6, 5.0e6),
          Duration(static_cast<std::int64_t>(rng.uniform(1.0e6, 20.0e6))));
    }
    auto& t = k.create_task("t" + std::to_string(i), std::move(body), policy, cpu);
    if (policy == Policy::kRr) k.sched_setscheduler(t, Policy::kRr, 50);
    k.start_task(t);
    all.push_back(&t);
    if (is_finite) finite.push_back(&t);
  }

  // Random perturbations while the mix runs.
  for (int j = 0; j < 10; ++j) {
    const auto when = Duration(static_cast<std::int64_t>(rng.uniform(1e6, 400e6)));
    auto* victim = all[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(all.size()) - 1))];
    const double what = rng.uniform();
    s.schedule_at(SimTime::zero() + when, [&k, victim, what, &rng] {
      if (victim->exited()) return;
      if (what < 0.4) {
        k.sched_setaffinity(*victim, static_cast<CpuId>(rng.uniform_int(0, 3)));
      } else if (what < 0.7 && !kern::is_hpc_policy(victim->policy())) {
        k.sched_setscheduler(*victim, Policy::kHpcRr);
      } else {
        k.set_nice(*victim, static_cast<int>(rng.uniform_int(-10, 10)));
      }
    });
  }

  s.run(SimTime::zero() + Duration::seconds(1.0));

  for (auto* t : finite) {
    EXPECT_TRUE(t->exited()) << t->name() << " did not finish";
  }
  for (auto* t : all) {
    k.flush_account(*t);
    const Duration lifetime = (t->exited() ? t->exit_time : k.now()) - t->created;
    const Duration accounted = t->t_run + t->t_ready + t->t_sleep;
    EXPECT_NEAR(static_cast<double>(accounted.ns()), static_cast<double>(lifetime.ns()), 2e4)
        << t->name() << " accounting leak";
    const int hw = p5::to_int(t->hw_prio);
    EXPECT_GE(hw, 1) << t->name();
    EXPECT_LE(hw, 6) << t->name();
  }
  (void)hpc_cls;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedStress,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808, 909, 1010));

}  // namespace
}  // namespace hpcs::test
