// Tests of the parallel experiment engine: the runner's ordering, exception
// and concurrency semantics, and the headline contract — a batch of runs is
// bit-identical for every jobs value.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/paper_experiments.h"
#include "exp/parallel_runner.h"
#include "obs/recorder.h"

namespace hpcs {
namespace {

TEST(ParallelRunner, MapReturnsResultsInIndexOrder) {
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    exp::ParallelRunner runner(jobs);
    const std::vector<int> out = runner.map(64, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 64u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i)) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelRunner, FirstExceptionBySubmissionIndexIsRethrown) {
  for (const unsigned jobs : {1u, 4u}) {
    exp::ParallelRunner runner(jobs);
    std::atomic<int> completed{0};
    try {
      (void)runner.map(4, [&completed](std::size_t i) {
        if (i == 1) throw std::runtime_error("first");
        if (i == 3) throw std::runtime_error("second");
        ++completed;
        return i;
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first") << "jobs=" << jobs;
    }
    // All non-throwing calls still ran to completion.
    EXPECT_EQ(completed.load(), 2) << "jobs=" << jobs;
  }
}

TEST(ParallelRunner, JobsFlagParsing) {
  unsigned jobs = 0;
  std::string error;
  EXPECT_TRUE(exp::parse_jobs("3", jobs, error)) << error;
  EXPECT_EQ(jobs, 3u);
  EXPECT_TRUE(exp::parse_jobs("4294967295", jobs, error)) << error;
  EXPECT_EQ(jobs, 4294967295u);
  for (const char* bad : {"", "0", "-1", "+2", "3x", " 3", "1.5", "4294967296"}) {
    jobs = 7;
    EXPECT_FALSE(exp::parse_jobs(bad, jobs, error)) << bad;
    EXPECT_EQ(error, std::string("'") + bad + "' is not a positive integer");
    EXPECT_EQ(jobs, 7u) << "a rejected value must leave the count alone";
  }
}

// jobs = 1 runs every call on the caller's thread; jobs = 3 runs three calls
// at once: each call waits (10 s at most) until all three have started, so
// a runner that starts fewer workers times out instead of passing.
TEST(ParallelRunner, JobsSetHowManyCallsRunAtOnce) {
  const std::thread::id caller = std::this_thread::get_id();
  exp::ParallelRunner serial(1);
  for (const bool on_caller :
       serial.map(4, [caller](std::size_t) { return std::this_thread::get_id() == caller; })) {
    EXPECT_TRUE(on_caller);
  }

  std::mutex m;
  std::condition_variable all_started;
  int started = 0;
  exp::ParallelRunner parallel(3);
  const std::vector<bool> met = parallel.map(3, [&](std::size_t) {
    std::unique_lock lock(m);
    if (++started == 3) all_started.notify_all();
    return all_started.wait_for(lock, std::chrono::seconds(10), [&] { return started == 3; });
  });
  EXPECT_EQ(met, std::vector<bool>(3, true));
}

// The headline contract: a batch of runs fanned across N workers produces
// RunResults equal to the serial loop's, for every N: every value field,
// down to each metric and window sample of the obs snapshot, of which the
// manifest is a rendering.
TEST(ParallelSweep, BitIdenticalAcrossJobCounts) {
  const analysis::SchedMode modes[] = {
      analysis::SchedMode::kBaselineCfs, analysis::SchedMode::kStatic,
      analysis::SchedMode::kUniform, analysis::SchedMode::kAdaptive};
  const std::uint64_t seeds[] = {1, 7};
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 3;
  obs::ObsConfig obs;
  obs.enabled = true;
  obs.window_ns = 50'000'000;
  const auto run = [&](unsigned jobs) {
    exp::ParallelRunner runner(jobs);
    return runner.map(8, [&](std::size_t i) {
      return analysis::run_metbench(e, modes[i / 2], /*trace=*/false, seeds[i % 2], obs);
    });
  };
  const std::vector<analysis::RunResult> reference = run(1);
  ASSERT_EQ(reference.size(), 8u);
  ASSERT_GT(reference[0].metrics.windows.samples.size(), 3u);
  for (const unsigned jobs : {2u, 3u, 8u}) {
    const std::vector<analysis::RunResult> runs = run(jobs);
    ASSERT_EQ(runs.size(), reference.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_TRUE(runs[i] == reference[i]) << "jobs=" << jobs << " run " << i;
    }
  }
}

}  // namespace
}  // namespace hpcs
