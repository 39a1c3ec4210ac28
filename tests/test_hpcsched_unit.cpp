// Unit tests of the HPCSched components in isolation: iteration tracker,
// heuristic metrics and classification, imbalance detector, mechanisms.

#include <gtest/gtest.h>

#include "hpcsched/heuristics.h"
#include "hpcsched/imbalance_detector.h"
#include "hpcsched/iteration_tracker.h"

namespace hpcs::hpc {
namespace {

SimTime at_ms(std::int64_t ms) { return SimTime(ms * 1000000); }

// ---- IterationTracker ------------------------------------------------------

TEST(IterationTracker, FirstWakeupOpensRunPhase) {
  IterationTracker tr;
  EXPECT_FALSE(tr.on_wakeup(1, at_ms(0)).has_value());
  const TaskIterStats* s = tr.stats(1);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->in_run);
  EXPECT_EQ(s->iterations, 0);
}

TEST(IterationTracker, IterationUtilization) {
  IterationTracker tr;
  tr.on_wakeup(1, at_ms(0));          // run phase starts
  tr.on_run_end(1, at_ms(25));        // t_R = 25 ms
  const auto s = tr.on_wakeup(1, at_ms(100));  // t_W = 75 ms -> U = 25%
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(s->util_last, 25.0, 1e-9);
  EXPECT_NEAR(s->util_global, 25.0, 1e-9);
  EXPECT_EQ(s->iteration, 1);
}

TEST(IterationTracker, GlobalIsTimeWeighted) {
  IterationTracker tr;
  tr.on_wakeup(1, at_ms(0));
  tr.on_run_end(1, at_ms(100));           // iter 1: 100 run / 0 wait... wait below
  tr.on_wakeup(1, at_ms(200));            // iter 1: U = 50% (100/200)
  tr.on_run_end(1, at_ms(300));           // iter 2: 100 run
  const auto s = tr.on_wakeup(1, at_ms(1200));  // iter 2: U = 10% (100/1000)
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(s->util_last, 10.0, 1e-9);
  // Global = total run / total span = 200 / 1200.
  EXPECT_NEAR(s->util_global, 100.0 * 200.0 / 1200.0, 1e-9);
}

TEST(IterationTracker, MicroIterationsAreMerged) {
  IterationTracker tr;
  tr.min_iteration = Duration::microseconds(500);
  tr.on_wakeup(1, at_ms(0));
  tr.on_run_end(1, at_ms(10));
  // Normal iteration closes (span 10.02 ms >= quantum).
  ASSERT_TRUE(tr.on_wakeup(1, SimTime(10 * 1000000 + 20000)).has_value());
  // The waitall double wakeup: block again almost immediately, second wake
  // 20 us later — that would-be iteration spans 30 us < quantum -> merged.
  tr.on_run_end(1, SimTime(10 * 1000000 + 30000));
  EXPECT_FALSE(tr.on_wakeup(1, SimTime(10 * 1000000 + 50000)).has_value());
  EXPECT_EQ(tr.stats(1)->iterations, 1);
  // The merged micro-span folds into the next real iteration.
  tr.on_run_end(1, at_ms(16));
  const auto s = tr.on_wakeup(1, at_ms(20));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->iteration, 2);
  // Run phase resumed at the first wake (10.02 ms): ~5.98 run / ~4 wait.
  EXPECT_NEAR(s->util_last, 100.0 * 5.98 / 9.98, 1.0);
}

TEST(IterationTracker, ResetRestartsGlobalFromLast) {
  IterationTracker tr;
  tr.on_wakeup(1, at_ms(0));
  tr.on_run_end(1, at_ms(10));
  tr.on_wakeup(1, at_ms(100));  // U_last = 10%
  tr.reset_history(1);
  const TaskIterStats* s = tr.stats(1);
  EXPECT_EQ(s->iterations, 0);
  EXPECT_EQ(s->total_iterations, 1);  // lifetime count survives
  EXPECT_NEAR(s->util_global, s->util_last, 1e-9);
  EXPECT_EQ(s->resets, 1);
}

// ---- Heuristics -------------------------------------------------------------

TEST(Heuristics, Classification) {
  HpcTunables tun;  // low 65, high 85, prio [4,6]
  EXPECT_EQ(classify_band(90.0, tun), 2);
  EXPECT_EQ(classify_band(85.0, tun), 2);
  EXPECT_EQ(classify_band(70.0, tun), 1);
  EXPECT_EQ(classify_band(65.0, tun), 0);
  EXPECT_EQ(classify_band(20.0, tun), 0);
  EXPECT_EQ(classify_priority(90.0, tun), 6);
  EXPECT_EQ(classify_priority(70.0, tun), 5);
  EXPECT_EQ(classify_priority(20.0, tun), 4);
}

TEST(Heuristics, ClassificationRespectsTunables) {
  HpcTunables tun;
  tun.low_util = 30;
  tun.high_util = 60;
  tun.min_prio = 2;
  tun.max_prio = 6;
  EXPECT_EQ(classify_priority(70.0, tun), 6);
  EXPECT_EQ(classify_priority(45.0, tun), 4);  // mid of [2,6]
  EXPECT_EQ(classify_priority(10.0, tun), 2);
}

TEST(Heuristics, BtMzProfileMapsToPaperStaticPriorities) {
  // The Table V baseline utilizations must classify to the paper's
  // hand-tuned static set 4/4/5/6.
  HpcTunables tun;
  EXPECT_EQ(classify_priority(17.63, tun), 4);
  EXPECT_EQ(classify_priority(29.85, tun), 4);
  EXPECT_EQ(classify_priority(66.09, tun), 5);
  EXPECT_EQ(classify_priority(99.85, tun), 6);
}

TEST(Heuristics, UniformUsesGlobal) {
  UniformHeuristic u;
  HpcTunables tun;
  TaskIterStats s;
  s.util_global = 42.0;
  s.util_last = 99.0;
  EXPECT_DOUBLE_EQ(u.metric(s, tun), 42.0);
}

TEST(Heuristics, AdaptiveBlendsGlobalAndLast) {
  AdaptiveHeuristic a;
  HpcTunables tun;
  tun.adaptive_g_pct = 10;
  TaskIterStats s;
  s.util_global_prev = 40.0;
  s.util_last = 90.0;
  EXPECT_NEAR(a.metric(s, tun), 0.1 * 40.0 + 0.9 * 90.0, 1e-9);
  tun.adaptive_g_pct = 100;  // degenerates to Uniform-on-previous-global
  EXPECT_NEAR(a.metric(s, tun), 40.0, 1e-9);
}

TEST(Heuristics, HybridWeighsRecencyByVariance) {
  HybridHeuristic h;
  HpcTunables tun;
  TaskIterStats steady;
  steady.util_global_prev = 40.0;
  steady.util_last = 90.0;
  steady.util_emvar = 0.0;  // quiet history -> behave like Uniform (L=0.1)
  EXPECT_NEAR(h.metric(steady, tun), 0.9 * 40.0 + 0.1 * 90.0, 1e-9);
  TaskIterStats turbulent = steady;
  turbulent.util_emvar = 1000.0;  // dynamic phase -> L=0.9
  EXPECT_NEAR(h.metric(turbulent, tun), 0.1 * 40.0 + 0.9 * 90.0, 1e-9);
}

TEST(Heuristics, Factory) {
  EXPECT_STREQ(make_heuristic(HeuristicKind::kUniform)->name(), "uniform");
  EXPECT_STREQ(make_heuristic(HeuristicKind::kAdaptive)->name(), "adaptive");
  EXPECT_STREQ(make_heuristic(HeuristicKind::kHybrid)->name(), "hybrid");
}

// ---- ImbalanceDetector -------------------------------------------------------

TEST(ImbalanceDetector, BalancedWhenAllHigh) {
  ImbalanceDetector d;
  HpcTunables tun;
  d.record(1, 95.0);
  d.record(2, 99.0);
  EXPECT_TRUE(d.balanced(tun));
  d.record(3, 50.0);
  EXPECT_FALSE(d.balanced(tun));
  d.record(3, 90.0);
  EXPECT_TRUE(d.balanced(tun));
  d.forget(3);
  EXPECT_TRUE(d.balanced(tun));
}

TEST(ImbalanceDetector, BehaviourChangeAfterStreak) {
  ImbalanceDetector d;
  HpcTunables tun;
  tun.reset_after = 2;
  TaskIterStats s;
  s.util_last = 95.0;   // high band
  s.util_global = 40.0;  // low band -> mismatch
  EXPECT_FALSE(d.behaviour_changed(s, tun));  // streak 1
  EXPECT_TRUE(d.behaviour_changed(s, tun));   // streak 2 -> reset
  // Agreement clears the streak.
  s.util_global = 95.0;
  s.mismatch_streak = 1;
  EXPECT_FALSE(d.behaviour_changed(s, tun));
  EXPECT_EQ(s.mismatch_streak, 0);
}

}  // namespace
}  // namespace hpcs::hpc
