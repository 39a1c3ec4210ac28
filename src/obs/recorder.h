#pragma once
// Recorder: one run's observability state — its metrics and their windowed
// series. A Recorder is created per run (never shared), so a parallel
// sweep's snapshots equal the serial sweep's for free: each worker records
// into its own Recorder and the committed snapshot depends only on the
// run's config.
//
// The Recorder is the manifest's one catalogue: its members (the counts
// taken during the run) and RunTotals (the counts read once it is over)
// are every metric the manifest contains, and recorder.cpp names them, in
// one fixed order. A run that happens to skip a code path still produces a
// manifest with the same layout (zeros instead of holes).
//
// The Recorder only counts: it never schedules anything, so a run's
// simulation is the same with windows on or off.

#include <array>
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

/// The counts a run reports once it is over, in manifest order. They are
/// rows only: a window column holds a count taken during the run.
struct RunTotals {
  std::int64_t ticks = 0;
  std::int64_t ticks_replayed = 0;
  std::int64_t events_executed = 0;
  std::int64_t eq_scheduled = 0;
  std::int64_t eq_resched_inplace = 0;
  std::int64_t eq_resched_pending = 0;
};

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
    ++tp_hits_[static_cast<std::size_t>(id)];
  }

  // The kernel's histogram observations, windowed like record().
  void observe_wakeup_latency_us(SimTime t, double us) {
    close_windows_before(t);
    wakeup_latency_us_.observe(us);
  }
  void observe_runq_depth(SimTime t, double depth) {
    close_windows_before(t);
    runq_depth_.observe(depth);
  }

  /// Windows closed so far (tests peek mid-run).
  [[nodiscard]] std::size_t windows_flushed() const { return samples_.size(); }

  /// Dump every metric in manifest order, stamped with the simulated end
  /// time: the tracepoint hits, the histograms and `totals`. With windowing
  /// on, any boundary <= `at` still pending is flushed first, then a final
  /// partial window closes at `at` (unless `at` IS the last boundary).
  [[nodiscard]] MetricsSnapshot snapshot(SimTime at, const RunTotals& totals = {});

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
  /// The cumulative value of every window column, in column order.
  [[nodiscard]] std::vector<std::int64_t> int_values() const;
  [[nodiscard]] std::vector<double> real_values() const;

  std::array<std::int64_t, kTpCount> tp_hits_{};  ///< indexed by TpId
  Histogram wakeup_latency_us_;
  Histogram runq_depth_;

  // Windowed-series state (all zero-cost when window_ns_ == 0).
  std::int64_t window_ns_ = 0;
  std::int64_t window_covered_ns_ = 0;   ///< end of the last flushed window
  std::vector<std::int64_t> prev_ints_;  ///< cumulative at the last flush
  std::vector<double> prev_reals_;
  std::vector<WindowSample> samples_;
};

}  // namespace hpcs::obs
