#include "obs/recorder.h"

#include <cctype>
#include <cstdlib>

namespace hpcs::obs {

bool parse_window_ns(const char* text, std::int64_t& out, std::string& error) {
  if (text == nullptr || text[0] == '\0') {
    error = "window period is empty; expected simulated nanoseconds, e.g. 100000000";
    return false;
  }
  for (const char* p = text; *p != '\0'; ++p) {
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) {
      error = std::string("window period '") + text +
              "' is not a number; expected simulated nanoseconds, e.g. 100000000";
      return false;
    }
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  constexpr unsigned long long kMax = 1ULL << 62U;
  if (v < 1 || v > kMax) {
    error = std::string("window period '") + text +
            "' is out of range; expected nanoseconds in [1, 2^62]";
    return false;
  }
  out = static_cast<std::int64_t>(v);
  return true;
}

Recorder::Recorder(const ObsConfig& cfg) {
  // Fixed registration order — this IS the manifest layout. Append only.
  tp_hits_.reserve(kTpCount);
  for (std::size_t i = 0; i < kTpCount; ++i) {
    tp_hits_.push_back(
        &metrics_.counter(std::string("tp.") + tp_name(static_cast<TpId>(i))));
  }

  wakeup_latency_us_ = &metrics_.histogram(
      "kern.wakeup_latency_us", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  runq_depth_ = &metrics_.histogram("kern.runq_depth", {0, 1, 2, 4, 8, 16, 32});

  // End-of-run counters: instrumentation sets them once before snapshot.
  metrics_.counter("kern.ctx_switches");
  metrics_.counter("kern.migrations");
  metrics_.counter("kern.balance_pulls");
  metrics_.counter("kern.ticks");
  metrics_.counter("kern.ticks_replayed");
  metrics_.counter("sim.events_executed");
  metrics_.counter("sim.eq_scheduled");
  metrics_.counter("sim.eq_dispatched");
  metrics_.counter("sim.eq_resched_inplace");
  metrics_.counter("sim.eq_resched_pending");
  metrics_.counter("hpc.iterations");
  metrics_.counter("hpc.prio_changes");
  metrics_.counter("hpc.resets");
  metrics_.counter("hpc.imbalance_detections");
  metrics_.counter("hpc.heuristic_decisions");
  metrics_.gauge("run.sim_end_s");

  // Windowed-series baseline: the cumulative sample at t=0 (all zeros) the
  // first flush diffs against. Taken here so a run that closes no windows
  // still has a consistent column layout for its final partial window.
  window_ns_ = cfg.window_ns > 0 ? cfg.window_ns : 0;
  if (window_ns_ > 0) {
    metrics_.sample_window_values(prev_ints_, prev_reals_, &real_is_point_);
  }
}

void Recorder::flush_one_window(std::int64_t end_ns) {
  WindowSample s;
  s.end = SimTime(end_ns);
  std::vector<double> cur_reals;
  metrics_.sample_window_values(s.ints, cur_reals);
  // Counters and histogram counts report per-window deltas; so do histogram
  // sums. Gauges report the value standing at the boundary.
  for (std::size_t i = 0; i < s.ints.size(); ++i) {
    const std::int64_t cum = s.ints[i];
    s.ints[i] = cum - prev_ints_[i];
    prev_ints_[i] = cum;
  }
  s.reals.resize(cur_reals.size());
  for (std::size_t i = 0; i < cur_reals.size(); ++i) {
    s.reals[i] = real_is_point_[i] != 0 ? cur_reals[i] : cur_reals[i] - prev_reals_[i];
    prev_reals_[i] = cur_reals[i];
  }
  samples_.push_back(std::move(s));
  window_covered_ns_ = end_ns;
}

MetricsSnapshot Recorder::snapshot(SimTime at) {
  metrics_.gauge("run.sim_end_s").set(at.sec());
  if (window_ns_ > 0) {
    // Close every boundary the run reached (a boundary exactly at `at` is a
    // complete window), then a final partial window up to `at` itself.
    while (window_covered_ns_ + window_ns_ <= at.ns()) {
      flush_one_window(window_covered_ns_ + window_ns_);
    }
    if (at.ns() > window_covered_ns_) flush_one_window(at.ns());
  }
  MetricsSnapshot snap = metrics_.snapshot(at);
  if (window_ns_ > 0) {
    snap.windows.window_ns = window_ns_;
    metrics_.window_columns(snap.windows.int_columns, snap.windows.real_columns);
    snap.windows.samples = samples_;
  }
  return snap;
}

}  // namespace hpcs::obs
