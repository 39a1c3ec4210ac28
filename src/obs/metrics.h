#pragma once
// The values of one run's metrics: histograms, the snapshot the Recorder
// dumps at the end of a run (every metric in manifest order, plus the
// windowed series) and the column layout the renderers and readers walk.
// Determinism is the whole design: the layout is fixed by obs::Recorder
// (recorder.cpp holds the catalogue) and values are driven only by
// simulated events, so two runs of the same config produce byte-identical
// dumps whether they execute serially or on an exp::ParallelRunner worker.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace hpcs::obs {

/// Fixed-bucket histogram. Bucket i (i < edges.size()) counts observations
/// with value <= edges[i] (first matching edge wins, so an observation equal
/// to an edge lands in that edge's bucket); the final bucket is the overflow
/// bucket for values above the last edge.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }
  [[nodiscard]] const std::vector<std::int64_t>& buckets() const { return buckets_; }
  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::vector<double> edges_;           ///< ascending upper bounds
  std::vector<std::int64_t> buckets_;   ///< edges_.size() + 1 (last = overflow)
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

enum class MetricKind { kCounter, kHistogram };

[[nodiscard]] const char* metric_kind_name(MetricKind k);

/// One metric's value at snapshot time.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t count = 0;  ///< counter value, or histogram observation count
  double value = 0.0;      ///< histogram sum
  std::vector<double> edges{};  ///< histogram only, like buckets
  std::vector<std::int64_t> buckets{};

  bool operator==(const MetricValue&) const = default;
};

/// One windowed sample: every column's value at a window boundary. `end` is
/// the sim-time the window closed at; the window covers (previous end, end].
struct WindowSample {
  SimTime end = SimTime::zero();
  std::vector<std::int64_t> ints;  ///< one per WindowedSeries::int_columns
  std::vector<double> reals;       ///< one per WindowedSeries::real_columns

  bool operator==(const WindowSample&) const = default;
};

/// Deterministic per-window time series of the counts taken during the run
/// (manifest v2): a tracepoint is one int column, a histogram an int
/// `<name>.count` plus a real `<name>.sum`, ints first, in metric order, so
/// the series layout is as fixed as the manifest's. Every column carries
/// per-window *deltas* (a window with no events samples zeros, never
/// holes). The end-of-run totals are rows only, never columns.
struct WindowedSeries {
  std::int64_t window_ns = 0;  ///< 0 = windowing off (columns/samples empty)
  std::vector<std::string> int_columns;
  std::vector<std::string> real_columns;
  std::vector<WindowSample> samples;

  [[nodiscard]] bool enabled() const { return window_ns > 0; }
  /// Column-ordered lookup of an int column index; -1 when absent.
  [[nodiscard]] int int_column(const std::string& name) const;
  /// Column-ordered lookup of a real column index; -1 when absent.
  [[nodiscard]] int real_column(const std::string& name) const;

  bool operator==(const WindowedSeries&) const = default;
};

/// The full dump: every metric in manifest order, stamped with the
/// simulated time the snapshot was taken at.
struct MetricsSnapshot {
  SimTime at = SimTime::zero();
  std::vector<MetricValue> metrics;
  WindowedSeries windows;  ///< empty unless the run sampled windows

  [[nodiscard]] bool empty() const { return metrics.empty(); }
  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const MetricValue* find(const std::string& name) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

}  // namespace hpcs::obs
