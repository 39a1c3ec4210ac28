#include "power5/throughput.h"

#include <algorithm>

#include "common/check.h"

namespace hpcs::p5 {

double speed_for_share(const ThroughputParams& p, double share) {
  HPCS_CHECK_MSG(p.share_points.size() == p.speed_points.size() && p.share_points.size() >= 2,
                 "malformed throughput curve");
  share = std::clamp(share, 0.0, 1.0);
  const auto& xs = p.share_points;
  const auto& ys = p.speed_points;
  if (share <= xs.front()) return ys.front();
  if (share >= xs.back()) return ys.back();
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (share <= xs[i]) {
      const double t = (share - xs[i - 1]) / (xs[i] - xs[i - 1]);
      return ys[i - 1] + t * (ys[i] - ys[i - 1]);
    }
  }
  return ys.back();
}

ThroughputParams power6_params() {
  ThroughputParams p;
  p.share_points = {0.0,  1.0 / 64, 1.0 / 32, 1.0 / 16, 0.125, 0.25,
                    0.5,  0.75,     0.875,    15.0 / 16, 31.0 / 32, 1.0};
  p.speed_points = {0.0,  0.02, 0.04, 0.07, 0.13, 0.45,
                    0.58, 0.76, 0.82, 0.84, 0.85, 0.86};
  return p;
}

ThroughputParams cell_params() {
  // CELL-like preset (the paper: the CELL processor exposes 3 priority
  // levels per task). Coarser lever: only three distinct operating points,
  // modeled as a flatter curve with a single big step.
  ThroughputParams p;
  p.share_points = {0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0};
  p.speed_points = {0.0, 0.30, 0.45, 0.60, 0.70, 0.72, 0.72};
  return p;
}

double decode_share_a(HwPrio a, HwPrio b) {
  const DecodeAllocation alloc = decode_allocation(a, b);
  HPCS_CHECK_MSG(!alloc.special, "decode_share_a on special priorities");
  return static_cast<double>(alloc.cycles_a) / static_cast<double>(alloc.window);
}

CoreSpeeds context_speeds(const ThroughputParams& p, HwPrio a, bool a_active, HwPrio b,
                          bool b_active, bool a_snoozed, bool b_snoozed) {
  const auto pair_speeds = [&p](double share_a) -> CoreSpeeds {
    return {speed_for_share(p, share_a), speed_for_share(p, 1.0 - share_a)};
  };

  const bool a_on = a_active && a != HwPrio::kOff;
  const bool b_on = b_active && b != HwPrio::kOff;

  if (!a_on && !b_on) return {0.0, 0.0};
  if (a_on && !b_on) {
    if (b_snoozed || p.idle_contention_prio < 0) return {p.st_speed, 0.0};
    // The idle sibling context spins (SMT snooze disabled or not yet
    // triggered) and keeps consuming the decode share of
    // `idle_contention_prio`.
    const HwPrio idle = hw_prio_from_int(p.idle_contention_prio);
    const CoreSpeeds s = context_speeds(p, a, true, idle, true, false, false);
    return {s.a, 0.0};
  }
  if (!a_on && b_on) {
    if (a_snoozed || p.idle_contention_prio < 0) return {0.0, p.st_speed};
    const HwPrio idle = hw_prio_from_int(p.idle_contention_prio);
    const CoreSpeeds s = context_speeds(p, idle, true, b, true, false, false);
    return {0.0, s.b};
  }

  // Both active. Handle the special priorities first (paper §II-B):
  // priority 7 means the sibling is off; if both claim 7 the hardware cannot
  // honor it — treat as equal regular share.
  if (a == HwPrio::kVeryHigh && b != HwPrio::kVeryHigh) return {p.st_speed, 0.0};
  if (b == HwPrio::kVeryHigh && a != HwPrio::kVeryHigh) return {0.0, p.st_speed};
  if (a == HwPrio::kVeryHigh && b == HwPrio::kVeryHigh) return pair_speeds(0.5);

  // Priority 1 = background: the foreground thread runs near ST speed, the
  // background thread picks up leftovers.
  if (a == HwPrio::kVeryLow && b == HwPrio::kVeryLow) return pair_speeds(0.5);
  if (a == HwPrio::kVeryLow) return {p.background_bg, p.background_fg};
  if (b == HwPrio::kVeryLow) return {p.background_fg, p.background_bg};

  return pair_speeds(decode_share_a(a, b));
}

CoreSpeedTable::CoreSpeedTable(const ThroughputParams& p) {
  // A spinning idle context at priority 0 would switch itself off, and
  // context_speeds would recurse without end.
  HPCS_CHECK_MSG(p.idle_contention_prio != 0, "idle_contention_prio is -1 or a priority 1..7");
  HPCS_CHECK_MSG(std::is_sorted(p.share_points.begin(), p.share_points.end()),
                 "share anchors must be sorted");
  for (std::size_t i = 0; i < cells_.size(); ++i) {  // i unpacks as index() packs it
    const HwPrio a = hw_prio_from_int(static_cast<int>(i >> 7));
    const HwPrio b = hw_prio_from_int(static_cast<int>(i >> 4 & 7));
    cells_[i] = context_speeds(p, a, (i & 8) != 0, b, (i & 4) != 0, (i & 2) != 0, (i & 1) != 0);
  }
}

}  // namespace hpcs::p5
