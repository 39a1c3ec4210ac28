// Tests for the analysis layer and the common utilities that back it:
// improvement computation, formatting helpers, running statistics, RNG
// stream independence, the draws' known answers and the whole-run RunResult
// comparison.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "analysis/paper_experiments.h"
#include "analysis/experiment.h"
#include "common/rng.h"
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

TEST(CommonRng, EngineIsTheStandardsMt19937_64) {
  // The standard's check value: the 10000th output of a default-seeded
  // mt19937_64 (seed 5489).
  Mt19937_64 check(5489);
  for (int i = 1; i < 10000; ++i) check();
  EXPECT_EQ(check(), 9981545732273789042ull);
  // The standard fixes the engine's whole output, so this holds on any library.
  for (const std::uint64_t seed : {0ull, 1ull, 7ull, 99ull, ~0ull}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    int mismatches = 0;
    for (int i = 0; i < 100000; ++i) mismatches += ours() != ref();
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

TEST(CommonRng, UnitRoundsToNearestAndStaysBelowOne) {
  constexpr std::uint64_t k53 = 1ull << 53;
  constexpr std::uint64_t k63 = 1ull << 63;
  EXPECT_EQ(Rng::unit(0), 0x0p+0);
  EXPECT_EQ(Rng::unit(1), 0x1p-64);
  EXPECT_EQ(Rng::unit(k53 - 1), 0x1.fffffffffffffp-12);  // exact
  EXPECT_EQ(Rng::unit(k53 + 1), 0x1p-11);                // a tie, to even
  EXPECT_EQ(Rng::unit(k63 - 1), 0x1p-1);                 // up
  EXPECT_EQ(Rng::unit(k63 + 1), 0x1p-1);                 // down
  // Near 2^64 doubles are 2048 apart: below the midpoint rounds down, the
  // midpoint rounds to even (2^64), which the clamp takes below 1.
  EXPECT_EQ(Rng::unit(~0ull - 1024), 0x1.fffffffffffffp-1);
  EXPECT_EQ(Rng::unit(~0ull - 1023), 0x1.fffffffffffffp-1);
  EXPECT_EQ(Rng::unit(~0ull), 0x1.fffffffffffffp-1);
}

TEST(CommonRng, FirstDrawsFromSeedOne) {
  // Captured from the std:: distributions over std::mt19937_64 (libstdc++ 12)
  // that Rng reproduces; each sequence starts from a fresh Rng(1).
  constexpr std::array<double, 8> kUniform = {
      0x1.122deafddb438p-3, 0x1.175c928118c7dp-3, 0x1.ce0b479deb991p-2, 0x1.5876015e4d702p-6,
      0x1.6751d5cbb3f1ap-2, 0x1.d29d85a57326dp-1, 0x1.e20cd8d6456f4p-2, 0x1.30d84f91bf14bp-4};
  constexpr std::array<double, 8> kShifted = {
      0x1.448b7abf76d0ep-1, 0x1.45d724a04631fp-1, 0x1.e705a3cef5cc8p-1, 0x1.0ac3b00af26b8p-1,
      0x1.b3a8eae5d9f8dp-1, 0x1.694ec2d2b9936p+0, 0x1.f1066c6b22b7ap-1, 0x1.261b09f237e29p-1};
  constexpr std::array<double, 8> kLognormal = {
      0x1.a08399232a9fep+15, 0x1.1f660213ec8abp+16, 0x1.707e996840f0cp+15,
      0x1.a24d9b74e7779p+16, 0x1.e48d672904b32p+15, 0x1.8117aa41756c9p+15,
      0x1.281da090cbb98p+15, 0x1.33a597e52f7e3p+16};
  Rng u(1);
  Rng s(1);
  Rng l(1);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(u.uniform(), kUniform[i]) << "draw " << i;
    EXPECT_EQ(s.uniform(0.5, 1.5), kShifted[i]) << "draw " << i;
    EXPECT_EQ(l.lognormal(11.0, 0.3), kLognormal[i]) << "draw " << i;
  }
}

#if defined(__GLIBCXX__)
/// A generator that returns one fixed word, to feed generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

// The formulas are libstdc++'s; this pins them to the library they came from.
TEST(CommonRng, DrawsEqualLibstdcxxPerCallDistributions) {
  int mismatches = 0;
  const auto differ = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b);
  };
  Mt19937_64 words(3);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t x = words() >> (i % 64);
    FixedWord w{x};
    mismatches += differ(Rng::unit(x), std::generate_canonical<double, 53>(w));
  }
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 20000; ++i) {
      const double mu = 9.0 + i % 5;
      const double sigma = 0.1 * (1 + i % 6);
      mismatches += differ(ours.uniform(), std::uniform_real_distribution<double>(0.0, 1.0)(ref));
      mismatches +=
          differ(ours.uniform(0.75, 1.25), std::uniform_real_distribution<double>(0.75, 1.25)(ref));
      mismatches +=
          differ(ours.lognormal(mu, sigma), std::lognormal_distribution<double>(mu, sigma)(ref));
    }
  }
  EXPECT_EQ(mismatches, 0);
}
#endif

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
