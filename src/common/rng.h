#pragma once
// Deterministic random number generation. Every stochastic component of the
// simulation (network jitter, OS noise, SIESTA burst sizes) draws from an Rng
// seeded from the experiment configuration, so runs are exactly repeatable.
//
// Every draw of a run goes through this header (the `draws_through_rng` ctest
// rejects <random> anywhere else under src/), and the engine and the
// distributions are written out here rather than taken from <random>. The
// standard fixes mt19937_64's output but not its distributions' algorithms, so
// a golden that pinned std::lognormal_distribution pinned one standard
// library. The formulas below are libstdc++'s per-call distributions, bit for
// bit (CommonRng tests), without the library's branches on random bits in the
// engine's refill and the conversion to double:
//
//   unit(x)         = min(round(x) * 2^-64, nextafter(1, 0)), where round(x)
//                     is x correctly rounded to a double: hi * 2^32 + lo,
//                     one rounding. This is generate_canonical<double, 53>
//                     on a 64-bit engine.
//   uniform(lo, hi) = unit * (hi - lo) + lo
//   lognormal(m, s) = exp(s * z + m), z the Marsaglia polar method's
//                     y-normal: draw x = 2u - 1, then y = 2v - 1, until
//                     0 < r2 = x^2 + y^2 <= 1; z = y * sqrt(-2 ln(r2) / r2).
//                     The x-normal is discarded, as a per-call
//                     std::lognormal_distribution discards it.
//
// The one platform dependence left is libm's log and exp (sqrt is IEEE
// correctly rounded).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace hpcs {

/// The 64-bit Mersenne Twister, std::mt19937_64: the standard fixes its
/// seeding, twist and tempering, so its output is the same everywhere. The
/// twist selects the matrix term with a mask, not a branch on a random bit.
/// A UniformRandomBitGenerator, so std::uniform_int_distribution takes it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) x_[i] = kF * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }

  result_type operator()() {
    if (p_ == kN) twist();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kA = 0xb5026f5aa96619e9ull;
  static constexpr result_type kF = 6364136223846793005ull;
  static constexpr result_type kUpper = ~result_type{0} << 31;

  /// m ^ (y >> 1) ^ (y odd ? a : 0), y the upper bit of `hi` and the lower 31
  /// of `lo`.
  static result_type mix(result_type m, result_type hi, result_type lo) {
    const result_type y = (hi & kUpper) | (lo & ~kUpper);
    return m ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
  }

  void twist() {
    for (std::size_t k = 0; k < kN - kM; ++k) x_[k] = mix(x_[k + kM], x_[k], x_[k + 1]);
    for (std::size_t k = kN - kM; k < kN - 1; ++k) x_[k] = mix(x_[k - (kN - kM)], x_[k], x_[k + 1]);
    x_[kN - 1] = mix(x_[kM - 1], x_[kN - 1], x_[0]);
    p_ = 0;
  }

  std::array<result_type, kN> x_{};
  std::size_t p_ = kN;
};

/// Seeded pseudo-random source with the few distributions the simulator
/// needs, formulas as in the header comment.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// x / 2^64, correctly rounded, clamped below 1.
  [[nodiscard]] static double unit(std::uint64_t x) {
    const double d = static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1p32 +
                     static_cast<double>(static_cast<std::uint32_t>(x));
    return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() { return unit(engine_()); }

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return uniform() * (hi - lo) + lo; }

  /// Uniform integer in [lo, hi] inclusive (tests only).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Log-normal parameterized by the mean and sigma of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return std::exp(sigma * (y * std::sqrt(-2.0 * std::log(r2) / r2)) + mu);
  }

  /// Derive an independent child stream; used to give each task its own
  /// stream so adding a task does not perturb the draws of the others.
  [[nodiscard]] Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ull); }

 private:
  Mt19937_64 engine_;
};

}  // namespace hpcs
