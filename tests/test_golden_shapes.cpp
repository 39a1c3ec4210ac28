// Golden shape regression tests: pin the headline reproduction numbers
// (with tolerances wide enough for benign calibration drift but tight
// enough to catch broken scheduler logic). These are the CI guardrails for
// EXPERIMENTS.md — if one of these fails, the reproduction story changed.

#include <gtest/gtest.h>

#include "analysis/paper_experiments.h"

namespace hpcs::analysis {
namespace {

TEST(GoldenMetBench, TableIII) {
  const auto e = MetBenchExperiment::paper();
  const auto base = run_metbench(e, SchedMode::kBaselineCfs);
  // Paper: 81.78s, utils 25.3/100/25.3/100.
  EXPECT_NEAR(base.exec_time.sec(), 81.8, 2.5);
  EXPECT_NEAR(base.ranks[0].util_pct, 25.0, 2.0);
  EXPECT_NEAR(base.ranks[1].util_pct, 99.9, 1.5);
  EXPECT_NEAR(base.min_util(), 25.0, 5.0);  // 24.78 measured

  const auto stat = run_metbench(e, SchedMode::kStatic);
  EXPECT_GE(stat.min_util(), 94.0);  // 97.56 measured
  const auto uni = run_metbench(e, SchedMode::kUniform);
  // Paper: +13.3% static, +12.3% uniform.
  EXPECT_NEAR(improvement_pct(base, stat), 13.5, 3.0);
  EXPECT_NEAR(improvement_pct(base, uni), 13.5, 3.0);
  EXPECT_GT(uni.min_util(), 90.0);
}

TEST(GoldenMetBenchVar, TableIV) {
  const auto e = MetBenchVarExperiment::paper();
  const auto base = run_metbenchvar(e, SchedMode::kBaselineCfs);
  EXPECT_NEAR(base.exec_time.sec(), 368.2, 8.0);
  EXPECT_NEAR(base.ranks[0].util_pct, 50.0, 3.0);
  EXPECT_NEAR(base.ranks[1].util_pct, 75.0, 3.0);

  const auto stat = run_metbenchvar(e, SchedMode::kStatic);
  const auto uni = run_metbenchvar(e, SchedMode::kUniform);
  const auto ada = run_metbenchvar(e, SchedMode::kAdaptive);
  // Paper: +8.1% static, +11.1% uniform, +11.3% adaptive. Our static is
  // weaker; the pinned shape is "static clearly below dynamic".
  EXPECT_NEAR(improvement_pct(base, stat), 4.5, 3.5);
  EXPECT_NEAR(improvement_pct(base, uni), 11.5, 3.0);
  EXPECT_NEAR(improvement_pct(base, ada), 11.0, 3.0);
  EXPECT_GT(improvement_pct(base, uni), improvement_pct(base, stat) + 3.0);
}

TEST(GoldenBtMz, TableV) {
  const auto e = BtMzExperiment::paper();
  const auto base = run_btmz(e, SchedMode::kBaselineCfs);
  EXPECT_NEAR(base.exec_time.sec(), 95.0, 3.0);
  EXPECT_NEAR(base.ranks[0].util_pct, 17.6, 2.5);
  EXPECT_NEAR(base.ranks[1].util_pct, 29.9, 2.5);
  EXPECT_NEAR(base.ranks[2].util_pct, 67.0, 3.5);
  EXPECT_NEAR(base.ranks[3].util_pct, 99.9, 1.5);

  const auto uni = run_btmz(e, SchedMode::kUniform);
  // Paper: +16.0%; we land ~15%.
  EXPECT_NEAR(improvement_pct(base, uni), 14.5, 3.0);
  EXPECT_EQ(uni.ranks[3].final_hw_prio, 6);
}

TEST(GoldenSiesta, TableVI) {
  auto e = SiestaExperiment::paper();
  e.workload.microiters = 20000;  // one third of the run; same structure
  const auto base = run_siesta(e, SchedMode::kBaselineCfs);
  const auto uni = run_siesta(e, SchedMode::kUniform);
  // Paper: +5.7%; latency-driven, utils barely move.
  EXPECT_NEAR(improvement_pct(base, uni), 5.0, 3.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(uni.ranks[i].util_pct, base.ranks[i].util_pct, 8.0);
  }
  // The mechanism: rank wakeup latency collapses under SCHED_HPC.
  EXPECT_GT(base.ranks[1].avg_wakeup_latency_us, 15.0);
  EXPECT_LT(uni.ranks[1].avg_wakeup_latency_us, 6.0);
}

}  // namespace
}  // namespace hpcs::analysis
