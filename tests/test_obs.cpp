// Tests of the observability subsystem: histogram bucketing edge cases, the
// Recorder's fixed manifest layout and windowed series, and the
// Chrome-trace / manifest renderers driven end-to-end through a real
// experiment.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/paper_experiments.h"
#include "kernel/task.h"
#include "obs/chrome_trace.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/text_file.h"
#include "obs/tracepoint.h"
#include "test_util.h"

namespace hpcs {
namespace {

TEST(Histogram, EdgeValueLandsInThatEdgesBucket) {
  obs::Histogram h({1.0, 5.0, 10.0});
  h.observe(1.0);   // == first edge -> bucket 0
  h.observe(5.0);   // == second edge -> bucket 1
  h.observe(10.0);  // == last edge -> bucket 2
  h.observe(10.1);  // above last edge -> overflow
  h.observe(0.0);   // below first edge -> bucket 0
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2);
  EXPECT_EQ(h.buckets()[1], 1);
  EXPECT_EQ(h.buckets()[2], 1);
  EXPECT_EQ(h.buckets()[3], 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 5.0 + 10.0 + 10.1);
}

TEST(Recorder, MacroIsANoOpOnNullRecorder) {
  obs::Recorder* rec = nullptr;
  int evaluations = 0;
  const auto when = [&evaluations] {
    ++evaluations;
    return SimTime::zero();
  };
  HPCS_TRACEPOINT(rec, obs::TpId::kTpWake, when());
  // The operand is only evaluated when the recorder is live.
  EXPECT_EQ(evaluations, 0);
}

TEST(Recorder, RecordBumpsHitCounter) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  obs::Recorder rec(cfg);
  obs::Recorder* r = &rec;
  HPCS_TRACEPOINT(r, obs::TpId::kTpSchedSwitch, SimTime(10));
  HPCS_TRACEPOINT(r, obs::TpId::kTpSchedSwitch, SimTime(20));
  HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(30));
  HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(40));
  const obs::MetricsSnapshot snap = rec.snapshot(SimTime(40));
  EXPECT_EQ(snap.find("tp.sched_switch")->count, 2);
  EXPECT_EQ(snap.find("tp.sched_wake")->count, 2);
  EXPECT_EQ(snap.find("tp.sched_migrate")->count, 0);
}

TEST(Recorder, SnapshotLayoutIsIndependentOfActivity) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  obs::Recorder idle(cfg);
  obs::Recorder busy(cfg);
  obs::Recorder* b = &busy;
  HPCS_TRACEPOINT(b, obs::TpId::kTpHpcIteration, SimTime(1));
  busy.observe_wakeup_latency_us(SimTime(1), 3.0);
  const auto s1 = idle.snapshot(SimTime::zero());
  const auto s2 = busy.snapshot(SimTime::zero());
  ASSERT_EQ(s1.metrics.size(), s2.metrics.size());
  for (std::size_t i = 0; i < s1.metrics.size(); ++i) {
    EXPECT_EQ(s1.metrics[i].name, s2.metrics[i].name) << "slot " << i;
    EXPECT_EQ(s1.metrics[i].kind, s2.metrics[i].kind) << "slot " << i;
  }
}

TEST(Recorder, FindReturnsNullForUnknownName) {
  obs::Recorder rec(obs::ObsConfig{});
  const obs::MetricsSnapshot snap = rec.snapshot(SimTime::zero());
  EXPECT_NE(snap.find("tp.sched_switch"), nullptr);
  EXPECT_EQ(snap.find("unknown"), nullptr);
}

TEST(Manifest, RenderDependsOnlyOnTheSnapshots) {
  obs::Recorder rec(obs::ObsConfig{});
  obs::Recorder* r = &rec;
  HPCS_TRACEPOINT(r, obs::TpId::kTpSchedSwitch, SimTime(1));
  rec.observe_wakeup_latency_us(SimTime(1), 1.5);
  const std::vector<obs::ManifestRun> runs = {{"run-a", rec.snapshot(SimTime(2500000000))}};
  const std::string a = obs::render_manifest_json("unit", runs);
  const std::string b = obs::render_manifest_json("unit", runs);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"hpcs-obs-manifest-v2\""), std::string::npos);
  EXPECT_NE(a.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(a.find("\"name\": \"run-a\""), std::string::npos);
  EXPECT_NE(a.find("\"sim_end_s\": 2.5"), std::string::npos);
  EXPECT_NE(a.find("\"kind\": \"histogram\""), std::string::npos);
}

// End-to-end: a real (abbreviated) experiment with obs on produces the
// instrumented counters and a loadable Chrome trace.
TEST(ObsEndToEnd, ExperimentPopulatesMetricsAndChromeTrace) {
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 3;
  obs::ObsConfig obs;
  obs.enabled = true;
  obs.chrome_trace = true;
  const auto r = analysis::run_metbench(e, analysis::SchedMode::kUniform,
                                        /*trace=*/false, /*seed=*/1, obs);
  ASSERT_FALSE(r.metrics.empty());
  EXPECT_GT(r.metrics.find("tp.sched_switch")->count, 0);
  EXPECT_GT(r.metrics.find("sim.events_executed")->count, 0);
  EXPECT_GT(r.metrics.find("tp.hpc_iteration")->count, 0);
  EXPECT_GT(r.metrics.find("kern.wakeup_latency_us")->count, 0);

  ASSERT_NE(r.chrome, nullptr);
  EXPECT_FALSE(r.chrome->slices().empty());
  const std::string json =
      obs::render_chrome_trace({{"Uniform", r.chrome.get()}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Every open slice was closed by finalize(): no dur is negative.
  EXPECT_EQ(json.find("\"dur\":-"), std::string::npos);
}

// The manifest keeps one row per count. Where a kept row is counted at the
// same site as another count, the two must agree on every run: the switch
// tracepoint, the run-queue-depth histogram (one observation per switch)
// and RunResult's kernel and HPCSched counters. MetBenchVar's reversals
// reset histories and change priorities; MetBench's baseline migrates.
TEST(ObsEndToEnd, SameSiteCountsAgree) {
  obs::ObsConfig obs;
  obs.enabled = true;
  auto var = analysis::MetBenchVarExperiment::paper();
  var.workload.iterations = 9;
  var.workload.k = 3;
  auto met = analysis::MetBenchExperiment::paper();
  met.workload.iterations = 20;
  const analysis::RunResult runs[] = {
      analysis::run_metbenchvar(var, analysis::SchedMode::kUniform, false, 1, obs),
      analysis::run_metbench(met, analysis::SchedMode::kBaselineCfs, false, 1, obs)};
  std::int64_t migrations = 0, prio_changes = 0, resets = 0;
  for (const analysis::RunResult& r : runs) {
    const auto count = [&r](const char* name) { return r.metrics.find(name)->count; };
    EXPECT_GT(r.context_switches, 0);
    EXPECT_EQ(count("tp.sched_switch"), r.context_switches);
    EXPECT_EQ(count("kern.runq_depth"), r.context_switches);
    EXPECT_EQ(count("tp.sched_migrate"), r.migrations);
    EXPECT_EQ(count("tp.hpc_prio_change"), r.hw_prio_changes);
    EXPECT_EQ(count("tp.hpc_history_reset"), r.hpc_history_resets);
    migrations += r.migrations;
    prio_changes += r.hw_prio_changes;
    resets += r.hpc_history_resets;
  }
  EXPECT_GT(migrations, 0);
  EXPECT_GT(prio_changes, 0);
  EXPECT_GT(resets, 0);
}

// The whole document for a tiny capture, pinned byte for byte. Two CPUs:
// cpu 1's first slice closes on a switch to idle, cpu 0's slice and cpu 1's
// second are still open at the end and closed by finalize() (so they come
// last, in CPU order). rank1 completes an iteration before rank0 does, so
// its iteration track is named first; the track names sit between the
// priority samples and the first instant. The windowed series skips its
// flat columns. The literal is the output of the renderer as it was before
// the spool and the capture interface were deleted.
TEST(ChromeTrace, RendersExactDocumentForTinyCapture) {
  obs::ChromeTraceSink sink;
  kern::Task a(1, "rank0", kern::Policy::kNormal);
  kern::Task b(2, "rank1", kern::Policy::kNormal);
  sink.on_switch(SimTime(0), 0, nullptr, &a);
  sink.on_switch(SimTime(250), 1, nullptr, &b);
  sink.on_iteration(SimTime(1000), b, 1, 40.0, 40.0);
  sink.on_hw_prio(SimTime(1500), a, p5::HwPrio::kHigh);
  sink.on_switch(SimTime(2000), 1, &b, nullptr);
  sink.on_iteration(SimTime(2500), a, 1, 100.0, 100.0 / 3.0);
  sink.on_hw_prio(SimTime(2500), b, p5::HwPrio::kMediumLow);
  sink.on_switch(SimTime(3001), 1, nullptr, &b);
  sink.on_iteration(SimTime(3500), b, 2, 62.5, 51.25);
  sink.finalize(SimTime(4000));

  obs::MetricsSnapshot snap;
  snap.windows.window_ns = 2000;
  snap.windows.int_columns = {"tp.sched_switch", "tp.sched_migrate"};
  snap.windows.real_columns = {"kern.wakeup_latency_us.sum", "run.idle"};
  snap.windows.samples = {{SimTime(2000), {3, 0}, {1.5, 0.0}},
                          {SimTime(4000), {1, 0}, {0.125, 0.0}}};

  const char* const expected = R"({"traceEvents": [
  {"name":"process_name","ph":"M","pid":1,"args":{"name":"Uniform \"tiny\""}},
  {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"cpu 0"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"cpu 1"}},
  {"name":"rank1","ph":"X","pid":1,"tid":1,"ts":0.250,"dur":1.750,"args":{"pid":2}},
  {"name":"rank0","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":4.000,"args":{"pid":1}},
  {"name":"rank1","ph":"X","pid":1,"tid":1,"ts":3.001,"dur":0.999,"args":{"pid":2}},
  {"name":"hw_prio rank0","ph":"C","pid":1,"ts":1.500,"args":{"prio":6}},
  {"name":"hw_prio rank1","ph":"C","pid":1,"ts":2.500,"args":{"prio":3}},
  {"name":"thread_name","ph":"M","pid":1,"tid":10002,"args":{"name":"rank1 iterations"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":10001,"args":{"name":"rank0 iterations"}},
  {"name":"iter 1","ph":"i","s":"t","pid":1,"tid":10002,"ts":1.000,"args":{"task":"rank1","util_last":40,"util_metric":40}},
  {"name":"iter 1","ph":"i","s":"t","pid":1,"tid":10001,"ts":2.500,"args":{"task":"rank0","util_last":100,"util_metric":33.33333333}},
  {"name":"iter 2","ph":"i","s":"t","pid":1,"tid":10002,"ts":3.500,"args":{"task":"rank1","util_last":62.5,"util_metric":51.25}},
  {"name":"win tp.sched_switch","ph":"C","pid":1,"ts":2.000,"args":{"v":3}},
  {"name":"win tp.sched_switch","ph":"C","pid":1,"ts":4.000,"args":{"v":1}},
  {"name":"win kern.wakeup_latency_us.sum","ph":"C","pid":1,"ts":2.000,"args":{"v":1.5}},
  {"name":"win kern.wakeup_latency_us.sum","ph":"C","pid":1,"ts":4.000,"args":{"v":0.125}}
], "displayTimeUnit": "ms"}
)";
  EXPECT_EQ(obs::render_chrome_trace({{"Uniform \"tiny\"", &sink, &snap}}), expected);
}

// write_chrome_trace renders into the file in bounded chunks; the file must
// hold exactly the bytes render_chrome_trace returns. ~200k slices over
// two runs is several chunks' worth. A path it cannot open and a device
// that takes no bytes both return false.
TEST(ChromeTrace, FileWriteEqualsRender) {
  obs::ChromeTraceSink sink;
  kern::Task a(1, "rank0", kern::Policy::kNormal);
  kern::Task b(2, "rank1", kern::Policy::kNormal);
  kern::Task* tasks[] = {&a, &b};

  constexpr int kSwitches = 200000;
  std::int64_t t = 0;
  for (int i = 0; i < kSwitches; ++i) {
    sink.on_switch(SimTime(t), i % 4, nullptr, tasks[(i / 4) % 2]);
    if (i % 1000 == 0) sink.on_hw_prio(SimTime(t), a, static_cast<p5::HwPrio>(1 + (i / 1000) % 7));
    if (i % 2500 == 0) sink.on_iteration(SimTime(t), b, i / 2500, 50.0, 60.0);
    t += 1000;
  }
  sink.finalize(SimTime(t));

  const std::vector<obs::ChromeTraceRun> runs = {{"run", &sink}, {"again", &sink}};
  const std::string rendered = obs::render_chrome_trace(runs);
  ASSERT_GT(rendered.size(), std::size_t{4} << 20);

  const std::string path = "hpcs_chrome_write_equals_render.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, runs));
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  EXPECT_TRUE(written == rendered) << "wrote " << written.size() << " bytes, rendered "
                                   << rendered.size();

  EXPECT_FALSE(obs::write_chrome_trace("hpcs_no_such_dir/trace.json", runs));
  // Writes that come up short: a chunk (the full document) and, for a tiny
  // document, only the final flush when the file is closed.
  if (std::FILE* full = std::fopen("/dev/full", "w")) {
    std::fclose(full);
    EXPECT_FALSE(obs::write_chrome_trace("/dev/full", runs));
    obs::ChromeTraceSink tiny;
    EXPECT_FALSE(obs::write_chrome_trace("/dev/full", {{"tiny", &tiny}}));
  }
}

// Manifests and the other report files reach disk through write_text_file.
// A document small enough to sit in stdio's buffer meets a full device only
// when the file is closed: that must still fail, with one warning.
TEST(TextFile, TinyWriteToFullDeviceFails) {
  const std::string path = "hpcs_text_file.json";
  ASSERT_TRUE(obs::write_text_file(path, "{}\n"));
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(written, "{}\n");

  if (std::FILE* full = std::fopen("/dev/full", "w")) {
    std::fclose(full);
    ::testing::internal::CaptureStderr();
    const bool ok = obs::write_manifest_json("/dev/full", "tiny", {});
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "warning: short write to /dev/full\n");
    EXPECT_FALSE(ok);
    EXPECT_FALSE(obs::write_text_file("/dev/full", "{}\n"));
  }
}

// Determinism: the same config yields a byte-identical manifest on repeat
// runs (the per-run Recorder never sees host state).
TEST(ObsEndToEnd, RepeatRunsRenderByteIdenticalManifests) {
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 2;
  obs::ObsConfig obs;
  obs.enabled = true;
  const auto r1 = analysis::run_metbench(e, analysis::SchedMode::kAdaptive,
                                         /*trace=*/false, /*seed=*/5, obs);
  const auto r2 = analysis::run_metbench(e, analysis::SchedMode::kAdaptive,
                                         /*trace=*/false, /*seed=*/5, obs);
  EXPECT_EQ(obs::render_manifest_json("repeat", {{"run", r1.metrics}}),
            obs::render_manifest_json("repeat", {{"run", r2.metrics}}));
}

// ---------------------------------------------------------------------------
// Windowed snapshots (--obs-window)

TEST(ParseWindowNs, AcceptsPositiveNanosecondCounts) {
  std::int64_t w = 0;
  std::string error;
  EXPECT_TRUE(obs::parse_window_ns("1", w, error)) << error;
  EXPECT_EQ(w, 1);
  EXPECT_TRUE(obs::parse_window_ns("100000000", w, error)) << error;
  EXPECT_EQ(w, 100000000);
}

TEST(ParseWindowNs, RejectsGarbageWithAClearError) {
  std::int64_t w = 99;
  std::string error;
  EXPECT_FALSE(obs::parse_window_ns("", w, error));
  EXPECT_FALSE(obs::parse_window_ns("0", w, error));
  EXPECT_FALSE(obs::parse_window_ns("-5", w, error));
  EXPECT_FALSE(obs::parse_window_ns("10ms", w, error));
  EXPECT_NE(error.find("10ms"), std::string::npos);
  EXPECT_EQ(w, 99);  // out is untouched on failure
}

TEST(RecorderWindows, BoundaryEventLandsInTheClosingWindow) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.window_ns = 100;
  obs::Recorder rec(cfg);
  obs::Recorder* r = &rec;
  HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(50));
  // An observation AT the boundary belongs to the window it closes, so it
  // leaves that window open.
  HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(100));
  EXPECT_EQ(rec.windows_flushed(), 0u);
  // The first observation past the boundary closes it.
  HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(101));
  EXPECT_EQ(rec.windows_flushed(), 1u);

  const obs::MetricsSnapshot snap = rec.snapshot(SimTime(150));
  ASSERT_TRUE(snap.windows.enabled());
  const int col = snap.windows.int_column("tp.sched_wake");
  ASSERT_GE(col, 0);
  ASSERT_EQ(snap.windows.samples.size(), 2u);  // [0,100] plus partial (100,150]
  EXPECT_EQ(snap.windows.samples[0].end, SimTime(100));
  EXPECT_EQ(snap.windows.samples[0].ints[static_cast<std::size_t>(col)], 2);
  EXPECT_EQ(snap.windows.samples[1].end, SimTime(150));
  EXPECT_EQ(snap.windows.samples[1].ints[static_cast<std::size_t>(col)], 1);
}

TEST(RecorderWindows, ZeroEventWindowsEmitZerosNotHoles) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.window_ns = 100;
  obs::Recorder rec(cfg);
  obs::Recorder* r = &rec;
  HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(50));
  // No later observation: snapshot alone closes every reached boundary.
  const obs::MetricsSnapshot snap = rec.snapshot(SimTime(450));
  const int col = snap.windows.int_column("tp.sched_wake");
  ASSERT_GE(col, 0);
  ASSERT_EQ(snap.windows.samples.size(), 5u);  // 100..400 complete + (400,450]
  const std::int64_t expect[] = {1, 0, 0, 0, 0};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(snap.windows.samples[i].end, SimTime(static_cast<std::int64_t>(100 * (i + 1)) < 450
                                                       ? static_cast<std::int64_t>(100 * (i + 1))
                                                       : 450));
    EXPECT_EQ(snap.windows.samples[i].ints[static_cast<std::size_t>(col)], expect[i]);
    ASSERT_EQ(snap.windows.samples[i].ints.size(), snap.windows.int_columns.size());
    ASSERT_EQ(snap.windows.samples[i].reals.size(), snap.windows.real_columns.size());
  }
}

TEST(RecorderWindows, SnapshotAtExactBoundaryEmitsNoPartialWindow) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.window_ns = 100;
  obs::Recorder rec(cfg);
  const obs::MetricsSnapshot snap = rec.snapshot(SimTime(200));
  ASSERT_EQ(snap.windows.samples.size(), 2u);
  EXPECT_EQ(snap.windows.samples[0].end, SimTime(100));
  EXPECT_EQ(snap.windows.samples[1].end, SimTime(200));
}

TEST(RecorderWindows, DeltasSumToTotalsAndTotalsAreNeverColumns) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.window_ns = 100;
  obs::Recorder rec(cfg);
  obs::Recorder* r = &rec;
  std::int64_t total_wakes = 0;
  double total_lat = 0.0;
  for (std::int64_t t = 10; t < 300; t += 30) {
    HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(t));
    ++total_wakes;
    rec.observe_wakeup_latency_us(SimTime(t), static_cast<double>(t));
    total_lat += static_cast<double>(t);
  }
  const obs::MetricsSnapshot snap = rec.snapshot(SimTime(300), {.ticks = 7});
  const int wake = snap.windows.int_column("tp.sched_wake");
  const int lat_n = snap.windows.int_column("kern.wakeup_latency_us.count");
  const int lat_s = snap.windows.real_column("kern.wakeup_latency_us.sum");
  ASSERT_GE(wake, 0);
  ASSERT_GE(lat_n, 0);
  ASSERT_GE(lat_s, 0);
  std::int64_t wakes = 0, lats = 0;
  double lat_sum = 0.0;
  for (const obs::WindowSample& s : snap.windows.samples) {
    wakes += s.ints[static_cast<std::size_t>(wake)];
    lats += s.ints[static_cast<std::size_t>(lat_n)];
    lat_sum += s.reals[static_cast<std::size_t>(lat_s)];
  }
  // Every column is a per-window delta: they sum to the totals.
  EXPECT_EQ(wakes, total_wakes);
  EXPECT_EQ(lats, snap.find("kern.wakeup_latency_us")->count);
  EXPECT_DOUBLE_EQ(lat_sum, total_lat);
  // The end-of-run totals are rows, never window columns: the columns are
  // the tracepoints and the histograms' counts and sums.
  EXPECT_EQ(snap.find("kern.ticks")->count, 7);
  std::size_t totals = 0;
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.name.starts_with("tp.") || m.kind == obs::MetricKind::kHistogram) continue;
    ++totals;
    EXPECT_EQ(snap.windows.int_column(m.name), -1) << m.name;
    EXPECT_EQ(snap.windows.real_column(m.name), -1) << m.name;
  }
  EXPECT_EQ(totals, 6u);
  EXPECT_EQ(snap.windows.int_columns.size(), obs::kTpCount + 2);
  EXPECT_EQ(snap.windows.real_columns.size(), 2u);
}

// Turning windows on must not change what they measure: every total of a
// windowed run equals the unwindowed run's.
TEST(RecorderWindows, WindowsLeaveEveryTotalUnchanged) {
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 3;
  obs::ObsConfig plain;
  plain.enabled = true;
  obs::ObsConfig windowed = plain;
  windowed.window_ns = 10'000'000;
  const auto a = analysis::run_metbench(e, analysis::SchedMode::kUniform,
                                        /*trace=*/false, /*seed=*/1, plain);
  const auto b = analysis::run_metbench(e, analysis::SchedMode::kUniform,
                                        /*trace=*/false, /*seed=*/1, windowed);
  ASSERT_GT(b.metrics.windows.samples.size(), 10u);
  ASSERT_EQ(a.metrics.metrics.size(), b.metrics.metrics.size());
  for (std::size_t i = 0; i < a.metrics.metrics.size(); ++i) {
    const obs::MetricValue& x = a.metrics.metrics[i];
    const obs::MetricValue& y = b.metrics.metrics[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.count, y.count) << x.name;
    EXPECT_EQ(x.value, y.value) << x.name;
    EXPECT_EQ(x.buckets, y.buckets) << x.name;
  }
}

/// Counts on_switch callbacks per window (w*W, (w+1)*W], apart from the
/// Recorder.
class SwitchWindowCounter final : public kern::TraceSink {
 public:
  explicit SwitchWindowCounter(std::int64_t window_ns) : window_ns_(window_ns) {}

  void on_switch(SimTime t, CpuId, const kern::Task*, const kern::Task*) override {
    const auto w = static_cast<std::size_t>(t.ns() == 0 ? 0 : (t.ns() - 1) / window_ns_);
    if (per_window.size() <= w) per_window.resize(w + 1, 0);
    ++per_window[w];
    if (t.ns() % window_ns_ != 0 && t.ns() % window_ns_ <= 1'000'000) ++just_past_boundary;
  }

  std::vector<std::int64_t> per_window;
  std::int64_t just_past_boundary = 0;  ///< within a tick after a boundary

 private:
  std::int64_t window_ns_;
};

TEST(RecorderWindows, SchedSwitchWindowsMatchAnIndependentCount) {
  constexpr std::int64_t kWindow = 10'000'000;
  test::KernelFixture f;
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.window_ns = kWindow;
  obs::Recorder rec(cfg);
  SwitchWindowCounter sink(kWindow);
  f.k().set_obs(&rec);
  f.k().set_trace(&sink);
  f.k().start();
  // Periodic tasks whose periods drift against the 1 ms tick, so switches
  // fall at every offset within a window.
  for (int i = 0; i < 6; ++i) {
    auto& t = f.k().create_task(
        "p" + std::to_string(i),
        std::make_unique<test::PeriodicBody>(0.3e6 + 0.17e6 * i, Duration(700'000 + 130'000 * i)),
        kern::Policy::kNormal, i % 4);
    f.k().start_task(t);
  }
  const SimTime end(300'000'000);
  f.sim.run(end);
  f.k().set_trace(nullptr);
  f.k().set_obs(nullptr);
  const obs::MetricsSnapshot snap = rec.snapshot(end);

  // A flush that waited for the next tick would count these in the window
  // before.
  EXPECT_GT(sink.just_past_boundary, 0);
  const int col = snap.windows.int_column("tp.sched_switch");
  ASSERT_GE(col, 0);
  ASSERT_EQ(snap.windows.samples.size(), 30u);
  ASSERT_LE(sink.per_window.size(), snap.windows.samples.size());
  sink.per_window.resize(snap.windows.samples.size(), 0);
  for (std::size_t w = 0; w < snap.windows.samples.size(); ++w) {
    EXPECT_EQ(snap.windows.samples[w].ints[static_cast<std::size_t>(col)], sink.per_window[w])
        << "window " << w;
  }
}

TEST(RecorderWindows, ManifestRendersTheSeriesUnderV2) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.window_ns = 100;
  obs::Recorder rec(cfg);
  obs::Recorder* r = &rec;
  HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(10));
  const obs::MetricsSnapshot snap = rec.snapshot(SimTime(250));
  const std::string json = obs::render_manifest_json("unit", {{"run", snap}});
  EXPECT_NE(json.find("\"schema\": \"hpcs-obs-manifest-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"windows\": {\"window_ns\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"tp.sched_wake\""), std::string::npos);
  EXPECT_NE(json.find("\"t_ns\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"t_ns\": 250"), std::string::npos);
  // Rendering is still a pure function of the snapshot.
  EXPECT_EQ(json, obs::render_manifest_json("unit", {{"run", snap}}));
}

TEST(RecorderWindows, ChromeTraceEmitsCounterTracksAndSkipsFlatColumns) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  cfg.window_ns = 100;
  obs::Recorder rec(cfg);
  obs::Recorder* r = &rec;
  HPCS_TRACEPOINT(r, obs::TpId::kTpWake, SimTime(10));
  const obs::MetricsSnapshot snap = rec.snapshot(SimTime(200));

  obs::ChromeTraceSink sink;
  kern::Task t(1, "rank0", kern::Policy::kNormal);
  sink.on_switch(SimTime(0), 0, nullptr, &t);
  sink.finalize(SimTime(200));
  const std::string json = obs::render_chrome_trace({{"run", &sink, &snap}});
  EXPECT_NE(json.find("\"name\":\"win tp.sched_wake\",\"ph\":\"C\""), std::string::npos);
  // A column that never moved emits no track at all.
  EXPECT_EQ(json.find("win tp.sched_migrate"), std::string::npos);
  // Without the metrics pointer the render is unchanged from the v1 shape.
  EXPECT_EQ(obs::render_chrome_trace({{"run", &sink}}).find("\"ph\":\"C\""),
            std::string::npos);
}

}  // namespace
}  // namespace hpcs
