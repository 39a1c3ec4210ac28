#pragma once
// Recorder: one run's observability state — the metrics registry and its
// windowed series. A Recorder is created per run (never shared), so a
// parallel sweep's snapshots equal the serial sweep's for free: each worker
// records into its own Recorder and the committed snapshot depends only on
// the run's config.
//
// Every metric the manifest can ever contain is registered here, in the
// constructor, in one fixed order. Instrumentation only *sets* values; it
// never registers, so a run that happens to skip a code path still produces
// a manifest with the same layout (zeros instead of holes).
//
// The Recorder only counts: it never schedules anything, so a run's
// simulation is the same with windows on or off.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/tracepoint.h"

namespace hpcs::obs {

/// Knobs for one run's observability, carried inside ExperimentConfig.
struct ObsConfig {
  bool enabled = false;          ///< master switch; off = null Recorder, zero cost
  bool chrome_trace = false;     ///< also capture a Chrome-trace/Perfetto view
  std::int64_t window_ns = 0;    ///< windowed-snapshot period; 0 = off
};

/// Parse a window-period knob value (--obs-window NS):
/// a positive integer count of simulated nanoseconds. Returns false and
/// fills `error` (including the offending text) otherwise.
[[nodiscard]] bool parse_window_ns(const char* text, std::int64_t& out,
                                   std::string& error);

class Recorder {
 public:
  explicit Recorder(const ObsConfig& cfg);

  /// Tracepoint hot path (called through HPCS_TRACEPOINT): bump the hit
  /// counter of `id` in the window `t` falls in. The id is a template
  /// argument, so a record site can only name a kTp* constant.
  template <TpId id>
  void record(SimTime t) {
    static_assert(id != TpId::kTpCount, "kTpCount is not a tracepoint");
    close_windows_before(t);
    tp_hits_[static_cast<std::size_t>(id)]->inc();
  }

  // The kernel's histogram observations, windowed like record().
  void observe_wakeup_latency_us(SimTime t, double us) {
    close_windows_before(t);
    wakeup_latency_us_->observe(us);
  }
  void observe_runq_depth(SimTime t, double depth) {
    close_windows_before(t);
    runq_depth_->observe(depth);
  }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  /// Windows closed so far (tests peek mid-run).
  [[nodiscard]] std::size_t windows_flushed() const { return samples_.size(); }

  /// Dump every metric in registration order, stamped with the simulated
  /// end time. With windowing on, any boundary <= `at` still pending is
  /// flushed first, then a final partial window closes at `at` (unless `at`
  /// IS the last boundary).
  [[nodiscard]] MetricsSnapshot snapshot(SimTime at);

 private:
  /// Close every window that ended strictly before `t`. Window w covers
  /// (w*W, (w+1)*W], so an observation exactly at a boundary still lands in
  /// the window that boundary closes.
  void close_windows_before(SimTime t) {
    while (window_ns_ != 0 && window_covered_ns_ + window_ns_ < t.ns()) {
      flush_one_window(window_covered_ns_ + window_ns_);
    }
  }
  /// Close one window at `end_ns`, sampling deltas vs the previous flush.
  void flush_one_window(std::int64_t end_ns);

  MetricsRegistry metrics_;
  std::vector<Counter*> tp_hits_;                ///< indexed by TpId
  Histogram* wakeup_latency_us_ = nullptr;
  Histogram* runq_depth_ = nullptr;

  // Windowed-series state (all zero-cost when window_ns_ == 0).
  std::int64_t window_ns_ = 0;
  std::int64_t window_covered_ns_ = 0;  ///< end of the last flushed window
  std::vector<std::int64_t> prev_ints_;  ///< cumulative at the last flush
  std::vector<double> prev_reals_;
  std::vector<char> real_is_point_;      ///< 1 = gauge column (no delta)
  std::vector<WindowSample> samples_;
};

}  // namespace hpcs::obs
