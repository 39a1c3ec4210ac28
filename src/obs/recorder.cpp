#include "obs/recorder.h"

#include <cctype>
#include <cstdlib>
#include <iterator>
#include <utility>

namespace hpcs::obs {
namespace {

// The manifest catalogue: every row's name, in manifest order. Append only;
// the goldens pin the order (docs/observability.md).
constexpr const char* kTpNames[] = {
    "tp.sched_switch", "tp.sched_wake", "tp.sched_migrate", "tp.sched_balance_pull", "tp.hw_prio",
    "tp.hpc_iteration", "tp.hpc_imbalance", "tp.hpc_prio_change", "tp.hpc_history_reset"};
static_assert(std::size(kTpNames) == kTpCount, "one name per tracepoint, in TpId order");

constexpr const char* kWakeupLatency = "kern.wakeup_latency_us";
constexpr const char* kRunqDepth = "kern.runq_depth";

constexpr std::pair<const char*, std::int64_t RunTotals::*> kTotals[] = {
    {"kern.ticks", &RunTotals::ticks},
    {"kern.ticks_replayed", &RunTotals::ticks_replayed},
    {"sim.events_executed", &RunTotals::events_executed},
    {"sim.eq_scheduled", &RunTotals::eq_scheduled},
    {"sim.eq_resched_inplace", &RunTotals::eq_resched_inplace},
    {"sim.eq_resched_pending", &RunTotals::eq_resched_pending},
};
static_assert(std::size(kTotals) * sizeof(std::int64_t) == sizeof(RunTotals),
              "one name per RunTotals field");

}  // namespace

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

Recorder::Recorder(const ObsConfig& cfg)
    : wakeup_latency_us_({1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}),
      runq_depth_({0, 1, 2, 4, 8, 16, 32}),
      window_ns_(cfg.window_ns > 0 ? cfg.window_ns : 0) {
  // Windowed-series baseline: the cumulative sample at t=0 (all zeros) the
  // first flush diffs against.
  if (window_ns_ > 0) {
    prev_ints_ = int_values();
    prev_reals_ = real_values();
  }
}

// Window columns: the tracepoint hits and both histogram counts are ints;
// both histogram sums are reals.
std::vector<std::int64_t> Recorder::int_values() const {
  std::vector<std::int64_t> v(tp_hits_.begin(), tp_hits_.end());
  v.push_back(wakeup_latency_us_.count());
  v.push_back(runq_depth_.count());
  return v;
}

std::vector<double> Recorder::real_values() const {
  return {wakeup_latency_us_.sum(), runq_depth_.sum()};
}

void Recorder::flush_one_window(std::int64_t end_ns) {
  WindowSample s{SimTime(end_ns), int_values(), real_values()};
  // Every column reports its per-window delta.
  for (std::size_t i = 0; i < s.ints.size(); ++i) {
    const std::int64_t cum = s.ints[i];
    s.ints[i] = cum - prev_ints_[i];
    prev_ints_[i] = cum;
  }
  for (std::size_t i = 0; i < s.reals.size(); ++i) {
    const double cum = s.reals[i];
    s.reals[i] = cum - prev_reals_[i];
    prev_reals_[i] = cum;
  }
  samples_.push_back(std::move(s));
  window_covered_ns_ = end_ns;
}

MetricsSnapshot Recorder::snapshot(SimTime at, const RunTotals& totals) {
  if (window_ns_ > 0) {
    // Close every boundary the run reached (a boundary exactly at `at` is a
    // complete window), then a final partial window up to `at` itself.
    while (window_covered_ns_ + window_ns_ <= at.ns()) {
      flush_one_window(window_covered_ns_ + window_ns_);
    }
    if (at.ns() > window_covered_ns_) flush_one_window(at.ns());
  }
  MetricsSnapshot snap;
  snap.at = at;
  std::vector<MetricValue>& m = snap.metrics;
  for (std::size_t i = 0; i < kTpCount; ++i) {
    m.push_back({.name = kTpNames[i], .kind = MetricKind::kCounter, .count = tp_hits_[i]});
  }
  for (const auto& [name, h] : {std::pair{kWakeupLatency, &wakeup_latency_us_},
                                std::pair{kRunqDepth, &runq_depth_}}) {
    m.push_back({.name = name, .kind = MetricKind::kHistogram, .count = h->count(),
                 .value = h->sum(), .edges = h->edges(), .buckets = h->buckets()});
  }
  for (const auto& [name, field] : kTotals) {
    m.push_back({.name = name, .kind = MetricKind::kCounter, .count = totals.*field});
  }
  if (window_ns_ > 0) {
    WindowedSeries& w = snap.windows;
    w.window_ns = window_ns_;
    w.int_columns.assign(std::begin(kTpNames), std::end(kTpNames));
    w.int_columns.push_back(std::string(kWakeupLatency) + ".count");
    w.int_columns.push_back(std::string(kRunqDepth) + ".count");
    w.real_columns = {std::string(kWakeupLatency) + ".sum", std::string(kRunqDepth) + ".sum"};
    w.samples = samples_;
  }
  return snap;
}

}  // namespace hpcs::obs
