#include "kernel/noise.h"

#include <algorithm>
#include <string>

namespace hpcs::kern {

double NoiseDaemonBody::jittered(double mean) {
  return std::max(1.0, rng_.uniform(mean * 0.5, mean * 1.5));
}

void NoiseDaemonBody::step(Kernel& k, Task& t) {
  if (computing_) {
    computing_ = false;
    k.body_sleep(t, Duration(static_cast<std::int64_t>(
                      jittered(static_cast<double>(cfg_.period.ns())))));
  } else {
    computing_ = true;
    k.body_compute(t, jittered(static_cast<double>(cfg_.burst.ns())));
  }
}

std::vector<Task*> spawn_noise_daemons(Kernel& k, const NoiseConfig& cfg, Rng& rng) {
  std::vector<Task*> out;
  for (CpuId cpu = 0; cpu < k.num_cpus(); ++cpu) {
    auto body = std::make_unique<NoiseDaemonBody>(cfg, rng.fork());
    Task& t = k.create_task("kdaemon/" + std::to_string(cpu), std::move(body),
                            Policy::kNormal, cpu);
    k.sched_setaffinity(t, cpu);
    k.start_task(t);
    out.push_back(&t);
  }
  return out;
}

}  // namespace hpcs::kern
