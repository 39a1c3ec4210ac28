// Physics-level property tests of the whole co-simulation: results must be
// (approximately) invariant to the timer-tick frequency and scale linearly
// with load. Also covers the MetBench master mode.

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "workloads/metbench.h"

namespace hpcs::test {
namespace {

wl::MetBenchConfig small_metbench() {
  wl::MetBenchConfig w;
  w.iterations = 8;
  w.loads = {0.05e9, 0.2e9, 0.05e9, 0.2e9};
  return w;
}

TEST(PhysicsProps, TickFrequencyInvariance) {
  // The execution engine is event-driven; ticks only drive CFS accounting
  // and RR slices. Baseline MetBench exec time must barely move between
  // 0.5 ms and 4 ms ticks.
  auto run_with_tick = [](Duration tick) {
    analysis::ExperimentConfig cfg;
    cfg.mode = analysis::SchedMode::kBaselineCfs;
    cfg.kernel.tick = tick;
    cfg.enable_noise = false;
    return analysis::run_experiment(cfg, wl::make_metbench(small_metbench())).exec_time.sec();
  };
  const double t_05 = run_with_tick(Duration::microseconds(500));
  const double t_1 = run_with_tick(Duration::milliseconds(1));
  const double t_4 = run_with_tick(Duration::milliseconds(4));
  EXPECT_NEAR(t_05, t_1, t_1 * 0.01);
  EXPECT_NEAR(t_4, t_1, t_1 * 0.01);
}

TEST(PhysicsProps, ExecutionTimeScalesLinearlyWithLoad) {
  auto run_scaled = [](double scale) {
    analysis::ExperimentConfig cfg;
    cfg.mode = analysis::SchedMode::kBaselineCfs;
    cfg.enable_noise = false;
    auto w = small_metbench();
    for (auto& l : w.loads) l *= scale;
    return analysis::run_experiment(cfg, wl::make_metbench(w)).exec_time.sec();
  };
  const double t1 = run_scaled(1.0);
  const double t2 = run_scaled(2.0);
  const double t4 = run_scaled(4.0);
  EXPECT_NEAR(t2 / t1, 2.0, 0.02);
  EXPECT_NEAR(t4 / t1, 4.0, 0.04);
}

TEST(PhysicsProps, MasterModeMetBenchCompletes) {
  // The paper's framework has a master process; with 5 tasks on 4 CPUs the
  // balancer and scheduler must still converge and complete every iteration.
  analysis::ExperimentConfig cfg;
  cfg.mode = analysis::SchedMode::kUniform;
  auto w = small_metbench();
  w.loads.push_back(1.0e5);  // the master
  const auto r = analysis::run_experiment(cfg, wl::make_metbench(w));
  ASSERT_EQ(r.ranks.size(), 5u);
  for (const auto& marks : r.marks) EXPECT_EQ(marks.size(), 8u);
  // The master computes almost nothing.
  EXPECT_LT(r.ranks[4].util_pct, 5.0);
}

}  // namespace
}  // namespace hpcs::test
