#pragma once
// OS noise: per-CPU daemon tasks that periodically wake, run a short burst
// and sleep again — the extrinsic imbalance source the paper cites ([9],
// [22], [24], [28]) and the competition that produces CFS scheduler latency
// in the SIESTA experiment (§V-D).

#include <memory>

#include "common/rng.h"
#include "common/types.h"
#include "kernel/kernel.h"

namespace hpcs::kern {

struct NoiseConfig {
  Duration period = Duration::milliseconds(10);   ///< mean time between bursts
  Duration burst = Duration::microseconds(50);    ///< mean burst length (work at ST speed)
};

/// Body of one noise daemon: alternates compute bursts and sleeps forever.
class NoiseDaemonBody final : public TaskBody {
 public:
  NoiseDaemonBody(const NoiseConfig& cfg, Rng rng) : cfg_(cfg), rng_(std::move(rng)) {}

  void step(Kernel& k, Task& t) override;

 private:
  /// `mean` +/- 50%, uniformly: the spread of both the period and the burst.
  [[nodiscard]] double jittered(double mean);

  NoiseConfig cfg_;
  Rng rng_;
  bool computing_ = false;
};

/// Create one pinned SCHED_NORMAL noise daemon per CPU and start them.
/// Returns the created tasks.
std::vector<Task*> spawn_noise_daemons(Kernel& k, const NoiseConfig& cfg, Rng& rng);

}  // namespace hpcs::kern
