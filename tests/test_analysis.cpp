// Tests for the analysis layer and the common utilities that back it:
// improvement computation, formatting helpers, running statistics, RNG
// stream independence and the whole-run RunResult comparison.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/paper_experiments.h"
#include "analysis/experiment.h"
#include "common/stats.h"
#include "test_util.h"
#include "workloads/metbench.h"

namespace hpcs::test {
namespace {

TEST(Analysis, ImprovementPct) {
  analysis::RunResult base;
  base.exec_time = Duration::seconds(100.0);
  analysis::RunResult faster;
  faster.exec_time = Duration::seconds(88.0);
  EXPECT_NEAR(improvement_pct(base, faster), 12.0, 1e-9);
  analysis::RunResult slower;
  slower.exec_time = Duration::seconds(110.0);
  EXPECT_NEAR(improvement_pct(base, slower), -10.0, 1e-9);
}

TEST(Analysis, MinMaxUtil) {
  analysis::RunResult r;
  r.ranks.push_back({.name = "a", .util_pct = 25.0});
  r.ranks.push_back({.name = "b", .util_pct = 99.0});
  EXPECT_DOUBLE_EQ(r.min_util(), 25.0);
  EXPECT_DOUBLE_EQ(r.max_util(), 99.0);
}

TEST(CommonFormat, Durations) {
  EXPECT_EQ(format_duration(Duration::seconds(1.5)), "1.500s");
  EXPECT_EQ(format_duration(Duration::milliseconds(12)), "12.000ms");
  EXPECT_EQ(format_duration(Duration::microseconds(7)), "7.000us");
  EXPECT_EQ(format_duration(Duration(42)), "42ns");
  EXPECT_EQ(format_time(SimTime(2500000000)), "2.500s");
}

TEST(CommonStats, RunningStat) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(CommonRng, ForkedStreamsAreIndependent) {
  Rng root(99);
  Rng a = root.fork();
  Rng b = root.fork();
  bool differ = false;
  for (int i = 0; i < 16; ++i) {
    if (a.uniform() != b.uniform()) differ = true;
  }
  EXPECT_TRUE(differ);
  // Re-deriving from the same seed reproduces the same child stream.
  Rng root2(99);
  Rng a2 = root2.fork();
  Rng a3(0);
  (void)a3;
  Rng check(99);
  Rng c = check.fork();
  for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(a2.uniform(), c.uniform());
}

TEST(PaperReferences, CoverEveryReportedMode) {
  using analysis::SchedMode;
  EXPECT_NEAR(analysis::paper_reference_metbench(SchedMode::kBaselineCfs).exec_time_s, 81.78,
              1e-9);
  EXPECT_EQ(analysis::paper_reference_metbench(SchedMode::kStatic).util_pct.size(), 4u);
  EXPECT_NEAR(analysis::paper_reference_metbenchvar(SchedMode::kUniform).exec_time_s, 327.17,
              1e-9);
  EXPECT_NEAR(analysis::paper_reference_btmz(SchedMode::kAdaptive).exec_time_s, 79.92, 1e-9);
  EXPECT_NEAR(analysis::paper_reference_siesta(SchedMode::kBaselineCfs).exec_time_s, 81.49,
              1e-9);
  // SIESTA has no static run in the paper.
  EXPECT_EQ(analysis::paper_reference_siesta(SchedMode::kStatic).exec_time_s, 0.0);
}

TEST(PolicyNames, AllDistinct) {
  using kern::Policy;
  EXPECT_STREQ(kern::policy_name(Policy::kFifo), "SCHED_FIFO");
  EXPECT_STREQ(kern::policy_name(Policy::kHpcRr), "SCHED_HPC(RR)");
  EXPECT_STREQ(kern::policy_name(Policy::kHpcFifo), "SCHED_HPC(FIFO)");
  EXPECT_STREQ(kern::policy_name(Policy::kNormal), "SCHED_NORMAL");
  EXPECT_TRUE(kern::is_hpc_policy(Policy::kHpcRr));
  EXPECT_FALSE(kern::is_hpc_policy(Policy::kNormal));
}

// ---------------------------------------------------------------------------
// RunResult equality (the whole-run oracle)

// RunResult's == is the oracle of test_tickless and test_exp_parallel: two
// runs are "the same" when they compare equal. That only holds if no value
// field can change without breaking equality, down to one nanosecond or one
// ULP, and if the tracer and chrome handles never take part.
TEST(RunResultEquality, NoticesAnyValueFieldChange) {
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 2;
  obs::ObsConfig obs;
  obs.enabled = true;
  obs.chrome_trace = true;
  obs.window_ns = 50'000'000;  // plenty of boundaries inside a short run
  analysis::RunResult r = analysis::run_metbench(
      e, analysis::SchedMode::kAdaptive, /*trace=*/true, /*seed=*/5, obs);
  ASSERT_FALSE(r.ranks.empty());
  ASSERT_FALSE(r.marks.empty());
  ASSERT_FALSE(r.marks[0].empty());
  ASSERT_FALSE(r.metrics.metrics.empty());
  ASSERT_FALSE(r.metrics.windows.samples.empty());

  // A second run of the same config: equal, though its handles differ.
  const analysis::RunResult same = analysis::run_metbench(
      e, analysis::SchedMode::kAdaptive, /*trace=*/true, /*seed=*/5, obs);
  EXPECT_NE(r.tracer, same.tracer);
  EXPECT_NE(r.chrome, same.chrome);
  EXPECT_TRUE(r == same);

  // Set `field` to `nudged`, compare, put the field back.
  auto breaks_equality = [&](auto& field, auto nudged) {
    const auto saved = field;
    field = nudged;
    const bool changed = !(r == same);
    field = saved;
    return changed;
  };
  EXPECT_TRUE(breaks_equality(r.mode, analysis::SchedMode::kUniform));
  EXPECT_TRUE(breaks_equality(r.exec_time, r.exec_time + Duration(1)));
  double& util = r.ranks.back().util_pct;
  EXPECT_TRUE(breaks_equality(util, std::nextafter(util, 200.0)));
  EXPECT_TRUE(breaks_equality(r.ranks.front().name, std::string("other")));
  EXPECT_TRUE(breaks_equality(r.marks[0][0].when, r.marks[0][0].when + Duration(1)));
  EXPECT_TRUE(breaks_equality(r.marks[0][0].cpu_time, r.marks[0][0].cpu_time + Duration(1)));
  double& latency = r.avg_wakeup_latency_us;
  EXPECT_TRUE(breaks_equality(latency, std::nextafter(latency, 1e9)));
  EXPECT_TRUE(breaks_equality(r.context_switches, r.context_switches + 1));
  EXPECT_TRUE(breaks_equality(r.migrations, r.migrations + 1));
  EXPECT_TRUE(breaks_equality(r.hw_prio_changes, r.hw_prio_changes + 1));
  EXPECT_TRUE(breaks_equality(r.hpc_history_resets, r.hpc_history_resets + 1));
  EXPECT_TRUE(breaks_equality(r.messages, r.messages + 1));
  EXPECT_TRUE(breaks_equality(r.metrics.at, r.metrics.at + Duration(1)));
  std::int64_t& count = r.metrics.metrics.front().count;
  EXPECT_TRUE(breaks_equality(count, count + 1));
  double& sum = r.metrics.metrics[obs::kTpCount].value;  // the first histogram's
  EXPECT_TRUE(breaks_equality(sum, std::nextafter(sum, 1e300)));
  std::int64_t& sample = r.metrics.windows.samples.back().ints.front();
  EXPECT_TRUE(breaks_equality(sample, sample + 1));
  double& real = r.metrics.windows.samples.front().reals.front();
  EXPECT_TRUE(breaks_equality(real, std::nextafter(real, 1e300)));

  // Every nudge was undone: the runs are equal again.
  EXPECT_TRUE(r == same);
}

}  // namespace
}  // namespace hpcs::test
