#include "simmpi/network.h"

#include <algorithm>
#include <cmath>

namespace hpcs::mpi {

Duration NetworkModel::delay(std::int64_t bytes) {
  constexpr double kBaseLatencyNs = 5000.0;
  constexpr double kBytesPerUs = 1000.0;  // ~1 GB/s
  const double transfer_us = static_cast<double>(bytes) / kBytesPerUs;
  double total_ns = kBaseLatencyNs + transfer_us * 1000.0;
  if (p_.jitter_frac > 0.0) {
    total_ns *= rng_.uniform(1.0 - p_.jitter_frac, 1.0 + p_.jitter_frac);
  }
  return Duration(std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(total_ns))));
}

}  // namespace hpcs::mpi
