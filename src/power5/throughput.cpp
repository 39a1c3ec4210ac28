#include "power5/throughput.h"

#include <algorithm>

#include "common/check.h"

namespace hpcs::p5 {
namespace {

constexpr double kStSpeed = 1.0;        ///< speed in single-thread mode (sibling ceded)
constexpr double kBackgroundFg = 0.98;  ///< foreground speed when sibling runs at priority 1
constexpr double kBackgroundBg = 0.15;  ///< background (priority 1) thread speed

/// Anchor points of the speed(share) curve (see throughput.h); linear
/// interpolation between them.
constexpr std::array<double, 12> kSharePoints = {
    0.0, 1.0 / 64, 1.0 / 32, 1.0 / 16, 0.125, 0.25, 0.5, 0.75, 0.875, 15.0 / 16, 31.0 / 32, 1.0};
constexpr std::array<double, 12> kSpeedPoints = {0.0,  0.04, 0.06, 0.10, 0.19,  0.55,
                                                 0.65, 0.73, 0.76, 0.77, 0.775, 0.78};
static_assert(std::is_sorted(kSharePoints.begin(), kSharePoints.end()),
              "share anchors must be sorted");

/// Interpolated speed for a given decode share.
double speed_for_share(double share) {
  share = std::clamp(share, 0.0, 1.0);
  const auto& xs = kSharePoints;
  const auto& ys = kSpeedPoints;
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

}  // namespace

double decode_share_a(HwPrio a, HwPrio b) {
  const DecodeAllocation alloc = decode_allocation(a, b);
  HPCS_CHECK_MSG(!alloc.special, "decode_share_a on special priorities");
  return static_cast<double>(alloc.cycles_a) / static_cast<double>(alloc.window);
}

CoreSpeeds context_speeds(const ThroughputParams& p, HwPrio a, bool a_active, HwPrio b,
                          bool b_active) {
  const auto pair_speeds = [](double share_a) -> CoreSpeeds {
    return {speed_for_share(share_a), speed_for_share(1.0 - share_a)};
  };

  const bool a_on = a_active && a != HwPrio::kOff;
  const bool b_on = b_active && b != HwPrio::kOff;

  if (!a_on && !b_on) return {0.0, 0.0};
  if (a_on && !b_on) {
    if (p.idle_contention_prio < 0) return {kStSpeed, 0.0};
    // The idle sibling context spins (SMT snooze disabled) and keeps
    // consuming the decode share of `idle_contention_prio`.
    const HwPrio idle = hw_prio_from_int(p.idle_contention_prio);
    const CoreSpeeds s = context_speeds(p, a, true, idle, true);
    return {s.a, 0.0};
  }
  if (!a_on && b_on) {
    if (p.idle_contention_prio < 0) return {0.0, kStSpeed};
    const HwPrio idle = hw_prio_from_int(p.idle_contention_prio);
    const CoreSpeeds s = context_speeds(p, idle, true, b, true);
    return {0.0, s.b};
  }

  // Both active. Handle the special priorities first (paper §II-B):
  // priority 7 means the sibling is off; if both claim 7 the hardware cannot
  // honor it — treat as equal regular share.
  if (a == HwPrio::kVeryHigh && b != HwPrio::kVeryHigh) return {kStSpeed, 0.0};
  if (b == HwPrio::kVeryHigh && a != HwPrio::kVeryHigh) return {0.0, kStSpeed};
  if (a == HwPrio::kVeryHigh && b == HwPrio::kVeryHigh) return pair_speeds(0.5);

  // Priority 1 = background: the foreground thread runs near ST speed, the
  // background thread picks up leftovers.
  if (a == HwPrio::kVeryLow && b == HwPrio::kVeryLow) return pair_speeds(0.5);
  if (a == HwPrio::kVeryLow) return {kBackgroundBg, kBackgroundFg};
  if (b == HwPrio::kVeryLow) return {kBackgroundFg, kBackgroundBg};

  return pair_speeds(decode_share_a(a, b));
}

CoreSpeedTable::CoreSpeedTable(const ThroughputParams& p) {
  // A spinning idle context at priority 0 would switch itself off, and
  // context_speeds would recurse without end.
  HPCS_CHECK_MSG(p.idle_contention_prio != 0, "idle_contention_prio is -1 or a priority 1..7");
  for (std::size_t i = 0; i < cells_.size(); ++i) {  // i unpacks as index() packs it
    const HwPrio a = hw_prio_from_int(static_cast<int>(i >> 5));
    const HwPrio b = hw_prio_from_int(static_cast<int>(i >> 2 & 7));
    cells_[i] = context_speeds(p, a, (i & 2) != 0, b, (i & 1) != 0);
  }
}

}  // namespace hpcs::p5
