#include "obs/metrics.h"

#include "common/check.h"

namespace hpcs::obs {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  HPCS_CHECK_MSG(!edges_.empty(), "histogram needs at least one bucket edge");
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    HPCS_CHECK_MSG(edges_[i - 1] < edges_[i], "histogram edges must be strictly ascending");
  }
  buckets_.assign(edges_.size() + 1, 0);
}

void Histogram::observe(double v) {
  ++count_;
  sum_ += v;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (v <= edges_[i]) {
      ++buckets_[i];
      return;
    }
  }
  ++buckets_.back();  // overflow
}

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

int WindowedSeries::int_column(const std::string& name) const {
  for (std::size_t i = 0; i < int_columns.size(); ++i) {
    if (int_columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int WindowedSeries::real_column(const std::string& name) const {
  for (std::size_t i = 0; i < real_columns.size(); ++i) {
    if (real_columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace hpcs::obs
