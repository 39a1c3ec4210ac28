#include "simmpi/network.h"

#include <algorithm>

namespace hpcs::mpi {
namespace {

/// std::llround(x) for 0.5 <= x < 2^63 without a libm call: halves round up.
/// x - trunc(x) is exact, so the comparison decides as llround does. Below
/// 0.5 both give at most 0, which delay() clamps to 1.
std::int64_t round_half_up(double x) {
  auto n = static_cast<std::int64_t>(x);
  if (x - static_cast<double>(n) >= 0.5) ++n;
  return n;
}

}  // namespace

Duration NetworkModel::delay(std::int64_t bytes) {
  constexpr double kBaseLatencyNs = 5000.0;
  constexpr double kBytesPerUs = 1000.0;  // ~1 GB/s
  const double transfer_us = static_cast<double>(bytes) / kBytesPerUs;
  double total_ns = kBaseLatencyNs + transfer_us * 1000.0;
  if (p_.jitter_frac > 0.0) {
    total_ns *= rng_.uniform(1.0 - p_.jitter_frac, 1.0 + p_.jitter_frac);
  }
  return Duration(std::max<std::int64_t>(1, round_half_up(total_ns)));
}

}  // namespace hpcs::mpi
