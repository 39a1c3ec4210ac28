#pragma once
// Deterministic random number generation. Every stochastic component of the
// simulation (network jitter, OS noise, SIESTA burst sizes) draws from an Rng
// seeded from the experiment configuration, so runs are exactly repeatable.

#include <cstdint>
#include <random>

namespace hpcs {

/// Seeded pseudo-random source (xoshiro-quality via std::mt19937_64) with the
/// handful of distributions the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Log-normal parameterized by the mean and sigma of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Normal (Gaussian).
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Derive an independent child stream; used to give each task its own
  /// stream so adding a task does not perturb the draws of the others.
  [[nodiscard]] Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ull); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace hpcs
