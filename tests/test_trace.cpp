// Trace module tests: interval construction from state transitions, compute
// fractions, Gantt rendering, CSV export formats, Paraver export failures.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "kernel/task.h"
#include "trace/csv.h"
#include "trace/gantt.h"
#include "trace/paraver.h"
#include "trace/tracer.h"

namespace hpcs::trace {
namespace {

SimTime at_ms(std::int64_t ms) { return SimTime(ms * 1000000); }

struct TraceFixture {
  kern::Task task{7, "rank0", kern::Policy::kHpcRr};
  Tracer tracer;

  /// Feed a wake/sleep/wake/... pattern.
  void feed(std::initializer_list<std::pair<std::int64_t, kern::TaskState>> events) {
    for (const auto& [ms, state] : events) tracer.on_state(at_ms(ms), task, state);
  }
};

TEST(Tracer, BuildsComputeWaitIntervals) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable},
          {10, kern::TaskState::kSleeping},
          {30, kern::TaskState::kRunnable},
          {40, kern::TaskState::kExited}});
  const auto& iv = f.tracer.intervals(7);
  ASSERT_EQ(iv.size(), 3u);
  EXPECT_EQ(iv[0].activity, Activity::kCompute);
  EXPECT_EQ(iv[0].begin, at_ms(0));
  EXPECT_EQ(iv[0].end, at_ms(10));
  EXPECT_EQ(iv[1].activity, Activity::kWait);
  EXPECT_EQ(iv[2].activity, Activity::kCompute);
  EXPECT_EQ(iv[2].end, at_ms(40));
}

TEST(Tracer, ComputeFraction) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable},
          {25, kern::TaskState::kSleeping},
          {100, kern::TaskState::kRunnable},
          {110, kern::TaskState::kExited}});
  EXPECT_NEAR(f.tracer.compute_fraction(7, at_ms(0), at_ms(100)), 0.25, 1e-9);
  EXPECT_NEAR(f.tracer.compute_fraction(7, at_ms(0), at_ms(110)), 35.0 / 110.0, 1e-9);
  EXPECT_NEAR(f.tracer.compute_fraction(7, at_ms(50), at_ms(60)), 0.0, 1e-9);
  // Unknown pid: zero.
  EXPECT_DOUBLE_EQ(f.tracer.compute_fraction(99, at_ms(0), at_ms(10)), 0.0);
}

TEST(Tracer, FinalizeClosesOpenInterval) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}});
  f.tracer.finalize(at_ms(50));
  const auto& iv = f.tracer.intervals(7);
  ASSERT_EQ(iv.size(), 1u);
  EXPECT_EQ(iv[0].end, at_ms(50));
}

TEST(Tracer, PrioAndIterationEvents) {
  TraceFixture f;
  f.tracer.on_hw_prio(at_ms(5), f.task, p5::HwPrio::kHigh);
  f.tracer.on_iteration(at_ms(10), f.task, 1, 25.0, 30.0);
  ASSERT_EQ(f.tracer.prio_events(7).size(), 1u);
  EXPECT_EQ(f.tracer.prio_events(7)[0].prio, 6);
  ASSERT_EQ(f.tracer.iteration_events(7).size(), 1u);
  EXPECT_EQ(f.tracer.iteration_events(7)[0].iteration, 1);
}

TEST(Gantt, RendersComputeAndWaitCells) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable},
          {50, kern::TaskState::kSleeping},
          {100, kern::TaskState::kRunnable},
          {110, kern::TaskState::kExited}});
  GanttOptions opt;
  opt.width = 10;
  opt.show_priorities = false;
  opt.end = at_ms(100);
  const std::string g = render_gantt(f.tracer, {7}, {"rank0"}, opt);
  // First half computing, second half waiting.
  EXPECT_NE(g.find("#####....."), std::string::npos) << g;
  EXPECT_NE(g.find("rank0"), std::string::npos);
}

TEST(Gantt, ShowsNonDefaultPriorities) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}});
  f.tracer.on_hw_prio(at_ms(40), f.task, p5::HwPrio::kHigh);
  f.tracer.finalize(at_ms(100));
  GanttOptions opt;
  opt.width = 10;
  const std::string g = render_gantt(f.tracer, {7}, {"rank0"}, opt);
  EXPECT_NE(g.find("666666"), std::string::npos) << g;
}

TEST(Gantt, EmptyTrace) {
  Tracer t;
  EXPECT_EQ(render_gantt(t, {}, {}), "(empty trace)\n");
}

TEST(Csv, IntervalExport) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}, {10, kern::TaskState::kExited}});
  std::ostringstream os;
  write_intervals_csv(os, f.tracer, {7}, {"rank0"});
  const std::string s = os.str();
  EXPECT_NE(s.find("pid,label,begin_s,end_s,activity"), std::string::npos);
  EXPECT_NE(s.find("7,rank0,0,0.01,compute"), std::string::npos) << s;
}

TEST(Csv, IterationExport) {
  TraceFixture f;
  f.tracer.on_iteration(at_ms(2000), f.task, 3, 25.5, 40.25);
  std::ostringstream os;
  write_iterations_csv(os, f.tracer, {7}, {"rank0"});
  EXPECT_NE(os.str().find("7,rank0,3,2,25.5,40.25"), std::string::npos) << os.str();
}

TEST(Csv, PriorityExport) {
  TraceFixture f;
  f.tracer.on_hw_prio(at_ms(500), f.task, p5::HwPrio::kMediumHigh);
  std::ostringstream os;
  write_priorities_csv(os, f.tracer, {7}, {"rank0"});
  EXPECT_NE(os.str().find("7,rank0,0.5,5"), std::string::npos) << os.str();
}

// A Paraver set small enough to sit in stdio's buffers meets a full disk only
// when each file is closed; export_paraver must still report all three.
TEST(Paraver, ExportToFullDeviceFails) {
  std::FILE* full = std::fopen("/dev/full", "w");
  if (full == nullptr) GTEST_SKIP() << "no /dev/full";
  std::fclose(full);

  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}, {10, kern::TaskState::kExited}});
  namespace fs = std::filesystem;
  const fs::path dir = "hpcs_paraver_full";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "x").string();
  for (const char* ext : {".prv", ".pcf", ".row"}) fs::create_symlink("/dev/full", prefix + ext);

  ParaverJob job;
  job.pids = {7};
  job.labels = {"rank0"};
  ::testing::internal::CaptureStderr();
  const bool ok = export_paraver(prefix, f.tracer, job);
  const std::string err = ::testing::internal::GetCapturedStderr();
  fs::remove_all(dir);
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, "warning: short write to " + prefix + ".prv\n" +
                     "warning: short write to " + prefix + ".pcf\n" +
                     "warning: short write to " + prefix + ".row\n");
}

}  // namespace
}  // namespace hpcs::trace
