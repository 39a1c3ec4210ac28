#include "hpcsched/heuristics.h"

#include <algorithm>

#include "common/check.h"

namespace hpcs::hpc {

int classify_band(double util_pct, const HpcTunables& tun) {
  if (util_pct >= static_cast<double>(tun.high_util)) return 2;
  if (util_pct <= static_cast<double>(tun.low_util)) return 0;
  return 1;
}

int classify_priority(double util_pct, const HpcTunables& tun) {
  const int band = classify_band(util_pct, tun);
  const int mid = (tun.min_prio + tun.max_prio) / 2;
  switch (band) {
    case 2: return tun.max_prio;
    case 0: return tun.min_prio;
    default: return mid;
  }
}

double UniformHeuristic::metric(const TaskIterStats& s, const HpcTunables& tun) const {
  (void)tun;
  return s.util_global;
}

double AdaptiveHeuristic::metric(const TaskIterStats& s, const HpcTunables& tun) const {
  const double g = std::clamp(tun.adaptive_g_pct, 0, 100) / 100.0;
  return g * s.util_global_prev + (1.0 - g) * s.util_last;
}

double HybridHeuristic::metric(const TaskIterStats& s, const HpcTunables& tun) const {
  (void)tun;
  // Map the EMA variance of per-iteration utilization into a recency weight
  // L in [0.1, 0.9]: quiet history -> trust the global ratio, noisy history
  // -> trust the last iteration.
  const double x = std::clamp(s.util_emvar / kDynamicVariance, 0.0, 1.0);
  const double l = 0.1 + 0.8 * x;
  return (1.0 - l) * s.util_global_prev + l * s.util_last;
}

std::unique_ptr<Heuristic> make_heuristic(HeuristicKind kind) {
  switch (kind) {
    case HeuristicKind::kUniform: return std::make_unique<UniformHeuristic>();
    case HeuristicKind::kAdaptive: return std::make_unique<AdaptiveHeuristic>();
    case HeuristicKind::kHybrid: return std::make_unique<HybridHeuristic>();
  }
  HPCS_CHECK(false);
  return nullptr;
}

}  // namespace hpcs::hpc
