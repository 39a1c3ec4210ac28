#pragma once
// Streaming statistics: the kernel's wakeup-latency accounting, per task and
// per kernel.

#include <cstdint>

namespace hpcs {

/// Welford-style running mean/variance with min/max tracking.
class RunningStat {
 public:
  void add(double x);
  void reset();

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace hpcs
