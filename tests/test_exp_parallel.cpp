// Tests of the parallel experiment engine: the runner's ordering/exception
// semantics, its engine stats, and the headline contract — a batch of runs
// is bit-identical for every jobs value.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/paper_experiments.h"
#include "analysis/run_serialize.h"
#include "exp/parallel_runner.h"
#include "obs/manifest.h"
#include "workloads/metbench.h"

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

// The headline contract: a batch of runs fanned across N workers produces
// the same RunResult bytes as the serial loop, for every N.
TEST(ParallelSweep, BitIdenticalAcrossJobCounts) {
  const analysis::SchedMode modes[] = {analysis::SchedMode::kBaselineCfs,
                                       analysis::SchedMode::kUniform,
                                       analysis::SchedMode::kAdaptive};
  const std::uint64_t seeds[] = {1, 7};
  const auto run = [&](unsigned jobs) {
    exp::ParallelRunner runner(jobs);
    return runner.map(6, [&](std::size_t i) {
      wl::MetBenchConfig w;
      w.iterations = 3;
      return analysis::serialize_run_result(analysis::run_experiment(
          analysis::paper_defaults(modes[i / 2], seeds[i % 2], false), wl::make_metbench(w)));
    });
  };
  const std::vector<std::string> reference = run(1);
  ASSERT_EQ(reference.size(), 6u);
  for (const unsigned jobs : {2u, 3u, 8u}) {
    const std::vector<std::string> runs = run(jobs);
    ASSERT_EQ(runs.size(), reference.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_TRUE(runs[i] == reference[i]) << "jobs=" << jobs << " run " << i;
    }
  }
}

TEST(ParallelRunner, EngineStatsReflectTheBatch) {
  exp::ParallelRunner serial(1);
  (void)serial.map(5, [](std::size_t i) { return i; });
  EXPECT_EQ(serial.last_stats().tasks, 5);
  EXPECT_EQ(serial.last_stats().workers, 0u);  // inline, no worker threads

  exp::ParallelRunner parallel(3);
  (void)parallel.map(8, [](std::size_t i) { return i; });
  EXPECT_EQ(parallel.last_stats().tasks, 8);
  EXPECT_EQ(parallel.last_stats().workers, 3u);
  EXPECT_GE(parallel.last_stats().wall_ms, 0.0);
}

TEST(ParallelRunner, PerWorkerCountsSurfaceInEngineStats) {
  // Serial path: no worker threads, no per-worker breakdown.
  exp::ParallelRunner serial(1);
  (void)serial.map(4, [](std::size_t i) { return i; });
  EXPECT_TRUE(serial.last_stats().per_worker_executed.empty());

  // Parallel path: one slot per worker, summing to the batch size.
  exp::ParallelRunner parallel(4);
  (void)parallel.map(32, [](std::size_t i) { return i; });
  const exp::EngineStats& s = parallel.last_stats();
  ASSERT_EQ(s.per_worker_executed.size(), 4u);
  std::int64_t sum = 0;
  for (const std::int64_t n : s.per_worker_executed) sum += n;
  EXPECT_EQ(sum, 32);
}

// The host sidecar's exact bytes: keys in a fixed order, integers as
// integers, wall time as %.10g, and the serial path's empty per-worker list.
TEST(ParallelRunner, HostJsonRendersExactDocument) {
  exp::EngineStats parallel;
  parallel.tasks = 5;
  parallel.workers = 2;
  parallel.per_worker_executed = {3, 2};
  parallel.wall_ms = 12.3456789012345;
  EXPECT_EQ(exp::render_host_json("table3_metbench", 4, parallel),
            "{\n"
            "  \"schema\": \"hpcs-obs-host-v2\",\n"
            "  \"bench\": \"table3_metbench\",\n"
            "  \"jobs\": 4,\n"
            "  \"engine\": {\n"
            "    \"tasks\": 5,\n"
            "    \"workers\": 2,\n"
            "    \"per_worker_executed\": [3, 2],\n"
            "    \"wall_ms\": 12.3456789\n"
            "  }\n"
            "}\n");

  exp::ParallelRunner serial(1);
  (void)serial.map(3, [](std::size_t i) { return i; });
  exp::EngineStats stats = serial.last_stats();
  stats.wall_ms = 0.5;
  EXPECT_EQ(exp::render_host_json("fig2_iteration_anatomy", 1, stats),
            "{\n"
            "  \"schema\": \"hpcs-obs-host-v2\",\n"
            "  \"bench\": \"fig2_iteration_anatomy\",\n"
            "  \"jobs\": 1,\n"
            "  \"engine\": {\n"
            "    \"tasks\": 3,\n"
            "    \"workers\": 0,\n"
            "    \"per_worker_executed\": [],\n"
            "    \"wall_ms\": 0.5\n"
            "  }\n"
            "}\n");
}

// The observability extension of the headline contract: the rendered
// metrics manifest — every counter, gauge and histogram of every run — is
// byte-identical whether the sweep ran serially or across N workers.
TEST(ParallelSweep, MetricsManifestByteIdenticalAcrossJobCounts) {
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 3;
  obs::ObsConfig obs;
  obs.enabled = true;
  const std::vector<analysis::SchedMode> modes = {
      analysis::SchedMode::kBaselineCfs, analysis::SchedMode::kUniform,
      analysis::SchedMode::kAdaptive, analysis::SchedMode::kStatic};

  const auto render = [&](unsigned jobs) {
    exp::ParallelRunner runner(jobs);
    auto results = runner.map(modes.size(), [&](std::size_t i) {
      return analysis::run_metbench(e, modes[i], /*trace=*/false, /*seed=*/1, obs);
    });
    std::vector<obs::ManifestRun> runs;
    for (std::size_t i = 0; i < modes.size(); ++i) {
      runs.push_back({analysis::sched_mode_name(modes[i]), results[i].metrics});
    }
    return obs::render_manifest_json("exp_parallel", runs);
  };

  const std::string reference = render(1);
  EXPECT_FALSE(reference.empty());
  for (const unsigned jobs : {2u, 4u}) {
    EXPECT_EQ(render(jobs), reference) << "jobs=" << jobs;
  }
}

// The v2 windowed series rides the same per-run Recorder, so it must hold
// the same contract: --obs-window output is byte-identical for any --jobs.
TEST(ParallelSweep, WindowedManifestByteIdenticalAcrossJobCounts) {
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 3;
  obs::ObsConfig obs;
  obs.enabled = true;
  obs.window_ns = 50'000'000;
  const std::vector<analysis::SchedMode> modes = {
      analysis::SchedMode::kBaselineCfs, analysis::SchedMode::kUniform,
      analysis::SchedMode::kAdaptive, analysis::SchedMode::kStatic};

  const auto render = [&](unsigned jobs) {
    exp::ParallelRunner runner(jobs);
    auto results = runner.map(modes.size(), [&](std::size_t i) {
      return analysis::run_metbench(e, modes[i], /*trace=*/false, /*seed=*/1, obs);
    });
    std::vector<obs::ManifestRun> runs;
    for (std::size_t i = 0; i < modes.size(); ++i) {
      EXPECT_TRUE(results[i].metrics.windows.enabled());
      EXPECT_FALSE(results[i].metrics.windows.samples.empty());
      runs.push_back({analysis::sched_mode_name(modes[i]), results[i].metrics});
    }
    return obs::render_manifest_json("exp_parallel", runs);
  };

  const std::string reference = render(1);
  EXPECT_NE(reference.find("\"window_ns\": 50000000"), std::string::npos);
  for (const unsigned jobs : {2u, 4u}) {
    EXPECT_EQ(render(jobs), reference) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace hpcs
