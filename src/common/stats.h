#pragma once
// Streaming statistics: the kernel's wakeup-latency accounting, per task and
// per kernel.

#include <cstdint>

namespace hpcs {

/// Welford-style running mean.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
  }

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
};

}  // namespace hpcs
