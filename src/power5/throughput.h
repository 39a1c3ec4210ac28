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
// complementary pairing reproduces Table V's utilization profile
// (70.6 / 42.2 / 61.0 / 99.9).

#include <array>
#include <cstddef>
#include <vector>

#include "power5/hw_priority.h"

namespace hpcs::p5 {

/// Tunable parameters of the throughput model. Defaults are calibrated in
/// DESIGN.md §2 against the paper's Tables III-V shapes.
struct ThroughputParams {
  /// Anchor points of the speed(share) curve; linear interpolation between
  /// them. Must be sorted by share and equal-length.
  std::vector<double> share_points = {0.0,    1.0 / 64, 1.0 / 32, 1.0 / 16, 0.125,
                                      0.25,   0.5,      0.75,     0.875,    15.0 / 16,
                                      31.0 / 32, 1.0};
  std::vector<double> speed_points = {0.0,  0.04, 0.06, 0.10, 0.19, 0.55,
                                      0.65, 0.73, 0.76, 0.77, 0.775, 0.78};
  double st_speed = 1.0;        ///< speed in single-thread mode (true snooze)
  double background_fg = 0.98;  ///< foreground speed when sibling runs at priority 1
  double background_bg = 0.15;  ///< background (priority 1) thread speed
  /// Hardware priority the *idle* context effectively contends at, modeling
  /// the Linux/POWER5 spin idle loop with SMT snooze disabled
  /// (smt_snooze_delay = -1), the common HPC setting the paper's numbers
  /// imply: the Table III baseline shows NO single-thread speedup while the
  /// light worker waits (25.3% utilization = exact 4:1 load ratio at equal
  /// speeds). Set to -1 to model a true snooze (context off -> ST mode).
  int idle_contention_prio = 4;
};

/// Throughput of the two contexts of one core, relative to ST mode.
struct CoreSpeeds {
  double a = 0.0;
  double b = 0.0;
};

/// Interpolated speed for a given decode share.
[[nodiscard]] double speed_for_share(const ThroughputParams& p, double share);

/// A POWER6-style parameter preset (the paper notes POWER6 "provides a
/// similar prioritization mechanism"). POWER6 is in-order, so threads hide
/// less of each other's stalls: the equal-share point is lower (~0.58) and
/// the priority lever steeper on both sides.
[[nodiscard]] ThroughputParams power6_params();

/// A CELL-like preset (3 coarse priority levels, paper §I): a flatter,
/// stepped curve — useful for studying how lever granularity affects the
/// balanceable imbalance range.
[[nodiscard]] ThroughputParams cell_params();

/// Per-context speeds for contexts running at priorities `a` and `b`.
/// `a_active` / `b_active` state whether each context currently executes a
/// (non-idle) task. An inactive context normally keeps contending at
/// idle_contention_prio (spin idle); an inactive context that has *snoozed*
/// (`x_snoozed`) has ceded the core entirely — the sibling runs in ST mode.
[[nodiscard]] CoreSpeeds context_speeds(const ThroughputParams& p, HwPrio a, bool a_active,
                                        HwPrio b, bool b_active, bool a_snoozed = false,
                                        bool b_snoozed = false);

/// context_speeds for all 1024 inputs (every priority pair, every active and
/// snoozed flag), computed once per ThroughputParams, so a lookup is
/// bit-identical to the scan. Serves every priority write and active/snooze
/// transition of every core; a chip's cores share one table.
class CoreSpeedTable {
 public:
  explicit CoreSpeedTable(const ThroughputParams& p);

  [[nodiscard]] CoreSpeeds operator()(HwPrio a, bool a_active, HwPrio b, bool b_active,
                                      bool a_snoozed, bool b_snoozed) const {
    return cells_[index(a, a_active, b, b_active, a_snoozed, b_snoozed)];
  }

 private:
  static constexpr std::size_t index(HwPrio a, bool a_active, HwPrio b, bool b_active,
                                     bool a_snoozed, bool b_snoozed) {
    return static_cast<std::size_t>(a) << 7 | static_cast<std::size_t>(b) << 4 |
           static_cast<std::size_t>(a_active) << 3 | static_cast<std::size_t>(b_active) << 2 |
           static_cast<std::size_t>(a_snoozed) << 1 | static_cast<std::size_t>(b_snoozed);
  }

  std::array<CoreSpeeds, 1024> cells_{};
};

/// Decode share of context A per Table I (0.5 at equal priorities,
/// (R-1)/R vs 1/R otherwise). Only meaningful for regular priorities.
[[nodiscard]] double decode_share_a(HwPrio a, HwPrio b);

}  // namespace hpcs::p5
