#pragma once
// Intra-node message transport model: fixed base latency plus a bandwidth
// term and optional uniform jitter, at MPICH-over-shared-memory scale.

#include "common/rng.h"
#include "common/types.h"

namespace hpcs::mpi {

struct NetworkParams {
  double jitter_frac = 0.1;      ///< uniform +/- fraction of the deterministic delay
};

class NetworkModel {
 public:
  NetworkModel(const NetworkParams& p, Rng rng) : p_(p), rng_(std::move(rng)) {}

  /// Transfer delay for one message of `bytes` payload.
  [[nodiscard]] Duration delay(std::int64_t bytes);

  [[nodiscard]] const NetworkParams& params() const { return p_; }

 private:
  NetworkParams p_;
  Rng rng_;
};

}  // namespace hpcs::mpi
