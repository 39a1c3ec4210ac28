#pragma once
// Decode-share → per-context throughput model (DESIGN.md §2).
//
// The paper's lever is the decode-slot share of Table I; what the scheduler
// ultimately cares about is each context's instruction throughput relative
// to single-thread (ST) mode. Real POWER5 measurements (the companion
// study [4] and the utilization columns of Tables III and V) show a strongly
// CONCAVE speed-vs-share curve: a thread with only a quarter of the decode
// slots still reaches ~85% of its equal-share speed (it was not decode-bound
// to begin with), while at 1/8 of the slots it falls off a cliff (~3.4x
// slower) — the paper's conclusion 1 ("to gain X% the sibling may lose
// 10X%"). We therefore model speed(share) as a piecewise-linear curve
// through calibrated anchor points:
//
//   share : 1/8    1/4    1/2    3/4    7/8
//   speed : 0.19   0.55   0.65   0.73   0.76
//
// calibrated so that (a) equal priorities give the typical 1.3x SMT
// throughput, (b) a +/-2 priority gap cancels MetBench's 4:1 imbalance with
// a ~13% gain (Table III), and (c) the BT-MZ static assignment 4/4/5/6 with
// complementary pairing reproduces Table V's Static gain (+14.0% against
// the paper's +16.2%). Its per-rank profile does not follow: table5_btmz
// measures 31.55 / 58.48 / 72.53 / 99.01 against the paper's
// 70.6 / 42.2 / 61.0 / 99.9, because the ring-synchronized BT-MZ
// phase-locks on neighbour dependences (EXPERIMENTS.md, Table V).

#include <array>
#include <cstddef>

#include "power5/hw_priority.h"

namespace hpcs::p5 {

/// The throughput model's one setting (the speed(share) curve is fixed in
/// throughput.cpp, calibrated in DESIGN.md §2 against the paper's Tables
/// III-V shapes).
struct ThroughputParams {
  /// Hardware priority the *idle* context effectively contends at, modeling
  /// the Linux/POWER5 spin idle loop with SMT snooze disabled, the common
  /// HPC setting the paper's numbers imply: the Table III baseline shows NO
  /// single-thread speedup while the light worker waits (25.3% utilization =
  /// exact 4:1 load ratio at equal speeds). Set to -1 to model an idle
  /// context that cedes the core (context off -> ST mode).
  int idle_contention_prio = 4;
};

/// Throughput of the two contexts of one core, relative to ST mode.
struct CoreSpeeds {
  double a = 0.0;
  double b = 0.0;
};

/// Per-context speeds for contexts running at priorities `a` and `b`.
/// `a_active` / `b_active` state whether each context currently executes a
/// (non-idle) task. An inactive context keeps contending at
/// idle_contention_prio (spin idle), or cedes the core when that is -1.
[[nodiscard]] CoreSpeeds context_speeds(const ThroughputParams& p, HwPrio a, bool a_active,
                                        HwPrio b, bool b_active);

/// context_speeds for all 256 inputs (every priority pair and active flag),
/// computed once per ThroughputParams, so a lookup is bit-identical to the
/// scan. Serves every priority write and active transition of every core; a
/// chip's cores share one table.
class CoreSpeedTable {
 public:
  explicit CoreSpeedTable(const ThroughputParams& p);

  [[nodiscard]] CoreSpeeds operator()(HwPrio a, bool a_active, HwPrio b, bool b_active) const {
    return cells_[index(a, a_active, b, b_active)];
  }

 private:
  static constexpr std::size_t index(HwPrio a, bool a_active, HwPrio b, bool b_active) {
    return static_cast<std::size_t>(a) << 5 | static_cast<std::size_t>(b) << 2 |
           static_cast<std::size_t>(a_active) << 1 | static_cast<std::size_t>(b_active);
  }

  std::array<CoreSpeeds, 256> cells_{};
};

/// Decode share of context A per Table I (0.5 at equal priorities,
/// (R-1)/R vs 1/R otherwise). Only meaningful for regular priorities.
[[nodiscard]] double decode_share_a(HwPrio a, HwPrio b);

}  // namespace hpcs::p5
