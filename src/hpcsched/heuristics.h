#pragma once
// The prioritization heuristics (paper §IV-B). A heuristic reduces a task's
// iteration history to one "metric utilization" (percent); the task is then
// classified as a low / medium / high utilization task against the LOW_UTIL
// and HIGH_UTIL bounds, which maps directly onto a hardware priority in
// [MIN_PRIO, MAX_PRIO]:
//
//   high utilization  -> MAX_PRIO   (computes the longest: more resources)
//   medium            -> the middle priority
//   low utilization   -> MIN_PRIO
//
// With the paper's range [4,6] this finds the correct priority in one or two
// iterations (e.g. BT-MZ's 17.6/29.9/66.1/99.9% baseline utilizations map to
// priorities 4/4/5/6 — exactly the paper's hand-tuned static assignment).

#include <memory>
#include <string>

#include "hpcsched/iteration_tracker.h"
#include "hpcsched/tunables.h"

namespace hpcs::hpc {

enum class HeuristicKind { kUniform, kAdaptive, kHybrid };

class Heuristic {
 public:
  virtual ~Heuristic() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// The utilization (percent) this heuristic classifies the task by.
  [[nodiscard]] virtual double metric(const TaskIterStats& s, const HpcTunables& tun) const = 0;
};

/// Classify a metric utilization into a target hardware priority.
[[nodiscard]] int classify_priority(double util_pct, const HpcTunables& tun);

/// Utilization band: 0 = low, 1 = medium, 2 = high.
[[nodiscard]] int classify_band(double util_pct, const HpcTunables& tun);

/// Uniform prioritization: uses the global utilization ratio of the task.
/// Very low overhead; balances constant applications well but is slow to
/// adapt once a long history has accumulated.
class UniformHeuristic final : public Heuristic {
 public:
  [[nodiscard]] const char* name() const override { return "uniform"; }
  [[nodiscard]] double metric(const TaskIterStats& s, const HpcTunables& tun) const override;
};

/// Adaptive prioritization: U_i = G * U_g(i-1) + L * U_l(i), G + L = 1.
/// An aggressive setting (L=0.90) adapts within ~2 iterations but may
/// over-react to OS noise; G close to 1 degenerates to Uniform.
class AdaptiveHeuristic final : public Heuristic {
 public:
  [[nodiscard]] const char* name() const override { return "adaptive"; }
  [[nodiscard]] double metric(const TaskIterStats& s, const HpcTunables& tun) const override;
};

/// EXTENSION (the paper's future work): a heuristic that performs acceptably
/// for both constant and dynamic applications by blending G/L according to
/// the observed variance of the per-iteration utilization — steady phases
/// weigh history (Uniform-like), turbulent phases weigh the last iteration
/// (Adaptive-like).
class HybridHeuristic final : public Heuristic {
 public:
  /// Variance (percent^2) above which the workload counts as fully dynamic.
  static constexpr double kDynamicVariance = 100.0;

  [[nodiscard]] const char* name() const override { return "hybrid"; }
  [[nodiscard]] double metric(const TaskIterStats& s, const HpcTunables& tun) const override;
};

[[nodiscard]] std::unique_ptr<Heuristic> make_heuristic(HeuristicKind kind);

}  // namespace hpcs::hpc
