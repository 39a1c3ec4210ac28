#pragma once
// Chrome trace-event (Perfetto legacy JSON) exporter. A ChromeTraceSink is a
// kern::TraceSink that turns scheduler activity into trace events:
//
//   - per-CPU "X" slices, one per occupancy of a CPU by a task (from
//     on_switch), so the CPU rows read like the kernel's sched view;
//   - per-task "C" counter events for hardware-priority changes, rendering
//     the paper's priority staircase as a counter track;
//   - per-task "i" instants for completed HPC iterations.
//
// write_chrome_trace() lays several runs (e.g. the four modes of a figure
// driver) into one file, each run as its own "process", and the result opens
// directly in chrome://tracing or ui.perfetto.dev (docs/observability.md).
// It renders straight into the file in bounded chunks, so the document is
// never held in memory whole; render_chrome_trace() returns the same bytes
// as a string.

#include <string>
#include <vector>

#include "common/types.h"
#include "kernel/trace_hooks.h"
#include "obs/metrics.h"

namespace hpcs::obs {

/// The capture: every record lives in a vector until rendered.
class ChromeTraceSink final : public kern::TraceSink {
 public:
  struct Slice {
    CpuId cpu = 0;
    Pid pid = kInvalidPid;
    std::string name;
    SimTime begin = SimTime::zero();
    SimTime end = SimTime::zero();
  };
  struct PrioSample {
    Pid pid = kInvalidPid;
    std::string task;
    SimTime when = SimTime::zero();
    int prio = 0;
  };
  struct IterationMark {
    Pid pid = kInvalidPid;
    std::string task;
    SimTime when = SimTime::zero();
    int iteration = 0;
    double util_last = 0.0;
    double util_metric = 0.0;
  };

  // TraceSink implementation.
  void on_switch(SimTime t, CpuId cpu, const kern::Task* prev,
                 const kern::Task* next) override;
  void on_hw_prio(SimTime t, const kern::Task& task, p5::HwPrio prio) override;
  void on_iteration(SimTime t, const kern::Task& task, int iteration, double util_last,
                    double util_metric) override;

  /// Close every open CPU slice at `end`. Call once when the run finishes.
  void finalize(SimTime end);

  /// Records in capture order, one vector per kind.
  [[nodiscard]] const std::vector<Slice>& slices() const { return slices_; }
  [[nodiscard]] const std::vector<PrioSample>& prio_samples() const { return prios_; }
  [[nodiscard]] const std::vector<IterationMark>& iterations() const { return iters_; }

 private:
  struct OpenSlice {
    bool open = false;
    Pid pid = kInvalidPid;
    std::string name;
    SimTime begin = SimTime::zero();
  };

  std::vector<Slice> slices_;
  std::vector<PrioSample> prios_;
  std::vector<IterationMark> iters_;
  std::vector<OpenSlice> open_;  ///< indexed by cpu
};

/// One run ("process") in the exported file. When `metrics` carries a
/// windowed series (manifest v2, --obs-window), every non-flat column is
/// additionally rendered as a Perfetto counter track ("C" events named
/// "win <column>") on the run's timeline, so per-window scheduler metrics
/// line up under the CPU slices.
struct ChromeTraceRun {
  std::string name;  ///< process label, e.g. the mode name
  const ChromeTraceSink* sink = nullptr;
  const MetricsSnapshot* metrics = nullptr;  ///< optional windowed series source
};

/// Render the runs as a Chrome trace-event JSON document (deterministic:
/// fixed event order, fixed number formatting).
[[nodiscard]] std::string render_chrome_trace(const std::vector<ChromeTraceRun>& runs);

/// Render into `path`, the same bytes as render_chrome_trace. Returns false,
/// after one warning, on I/O error.
bool write_chrome_trace(const std::string& path, const std::vector<ChromeTraceRun>& runs);

}  // namespace hpcs::obs
