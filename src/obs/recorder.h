#pragma once
// Recorder: one run's observability state — the metrics registry plus the
// per-CPU tracepoint rings. A Recorder is created per run (never shared), so
// parallel sweeps keep the PR-1 determinism contract for free: each worker
// records into its own Recorder and the committed snapshot depends only on
// the run's config.
//
// Every metric the manifest can ever contain is registered here, in the
// constructor, in one fixed order. Instrumentation only *sets* values; it
// never registers, so a run that happens to skip a code path still produces
// a manifest with the same layout (zeros instead of holes).

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
  std::size_t ring_capacity = 4096;  ///< per-CPU tracepoint ring (entries)
  std::int64_t window_ns = 0;    ///< windowed-snapshot period; 0 = off
};

/// Parse a per-CPU ring-capacity knob value (--obs-ring N).
/// Accepts only an exact power of two in [2, 2^30]: TraceRing would silently
/// round anything else up, and a knob that records a different capacity than
/// it was given is exactly the kind of surprise the manifest contract bans.
/// Returns false and fills `error` (including the offending text) otherwise.
[[nodiscard]] bool parse_ring_capacity(const char* text, std::size_t& out,
                                       std::string& error);

/// Parse a window-period knob value (--obs-window NS):
/// a positive integer count of simulated nanoseconds. Returns false and
/// fills `error` (including the offending text) otherwise.
[[nodiscard]] bool parse_window_ns(const char* text, std::int64_t& out,
                                   std::string& error);

class Recorder {
 public:
  Recorder(const ObsConfig& cfg, int num_cpus);

  /// Tracepoint hot path (called through HPCS_TRACEPOINT): bump the hit
  /// counter and append a fixed-size entry to the CPU's ring. The id is a
  /// template argument, so a record site can only name a kTp* constant.
  template <TpId id>
  void record(SimTime t, CpuId cpu, std::int64_t a0, std::int64_t a1) {
    static_assert(id != TpId::kTpCount, "kTpCount is not a tracepoint");
    tp_hits_[static_cast<std::size_t>(id)]->inc();
    const auto r = (cpu >= 0 && cpu < static_cast<CpuId>(rings_.size()))
                       ? static_cast<std::size_t>(cpu)
                       : 0;
    rings_[r].push(TraceEntry{t, static_cast<std::uint32_t>(id), cpu, a0, a1});
  }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] int num_cpus() const { return static_cast<int>(rings_.size()); }
  [[nodiscard]] const TraceRing& ring(CpuId cpu) const {
    return rings_[static_cast<std::size_t>(cpu)];
  }
  [[nodiscard]] std::uint64_t total_dropped() const;

  // Histogram handles for the kernel's inline instrumentation.
  [[nodiscard]] Histogram& wakeup_latency_us() { return *wakeup_latency_us_; }
  [[nodiscard]] Histogram& runq_depth() { return *runq_depth_; }

  /// Window flush hook, driven from the kernel tick (sim-time, so the
  /// sampled series is as deterministic as the totals). Window w covers
  /// (w*W, (w+1)*W]: a boundary is closed by the first tick strictly past
  /// it, so same-instant events AT the boundary always land in the closing
  /// window regardless of event-queue interleaving with the tick.
  void advance_window(SimTime now) {
    if (window_ns_ == 0 || now.ns() <= window_covered_ns_ + window_ns_) return;
    flush_windows_through(now.ns());
  }

  [[nodiscard]] std::int64_t window_ns() const { return window_ns_; }
  /// End of the oldest window still open; advance_window closes it at the
  /// first call strictly past this instant. Meaningful with windowing on.
  [[nodiscard]] SimTime next_window_end() const {
    return SimTime(window_covered_ns_ + window_ns_);
  }
  /// Windows flushed so far (tests peek mid-run).
  [[nodiscard]] std::size_t windows_flushed() const { return samples_.size(); }

  /// Finalize ring-derived counters and dump every metric in registration
  /// order, stamped with the simulated end time. With windowing on, any
  /// boundary <= `at` still pending is flushed first, then a final partial
  /// window closes at `at` (unless `at` IS the last boundary).
  [[nodiscard]] MetricsSnapshot snapshot(SimTime at);

 private:
  /// Flush every complete window with end < `now_ns` (strict: the boundary
  /// equal to `now_ns` stays open until a later tick or snapshot()).
  void flush_windows_through(std::int64_t now_ns);
  /// Close one window at `end_ns`, sampling deltas vs the previous flush.
  void flush_one_window(std::int64_t end_ns);

  MetricsRegistry metrics_;
  std::vector<TraceRing> rings_;                 ///< one per CPU
  std::vector<Counter*> tp_hits_;                ///< indexed by TpId
  Counter* ring_dropped_ = nullptr;
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
