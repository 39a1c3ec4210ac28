#pragma once
// One POWER5 core: two SMT contexts whose speeds are coupled through the
// decode-priority arbitration. The kernel updates context state (priority,
// active) and subscribes to speed changes so in-flight compute phases can be
// re-linearized.

#include <array>
#include <functional>
#include <memory>

#include "common/types.h"
#include "power5/hw_priority.h"
#include "power5/throughput.h"

namespace hpcs::p5 {

/// Index of a context within its core (0 or 1).
using CtxId = int;

class SmtCore {
 public:
  /// Called whenever the speed of either context may have changed.
  using SpeedChangeListener = std::function<void(CoreId)>;

  /// `speeds` is shared by every core of a chip.
  SmtCore(CoreId id, std::shared_ptr<const CoreSpeedTable> speeds)
      : id_(id), table_(std::move(speeds)) {
    prio_.fill(kDefaultPrio);
    active_.fill(false);
    recompute();
  }
  SmtCore(CoreId id, const ThroughputParams& params)
      : SmtCore(id, std::make_shared<const CoreSpeedTable>(params)) {}

  [[nodiscard]] CoreId id() const { return id_; }

  /// Set the hardware priority of one context. Returns true if it changed.
  bool set_priority(CtxId ctx, HwPrio p);
  /// Mark a context as executing work (true) or idle (false).
  bool set_active(CtxId ctx, bool active);

  [[nodiscard]] HwPrio priority(CtxId ctx) const { return prio_[check_ctx(ctx)]; }
  [[nodiscard]] bool active(CtxId ctx) const { return active_[check_ctx(ctx)]; }

  /// Current throughput of a context relative to ST mode (0 when inactive).
  [[nodiscard]] double speed(CtxId ctx) const { return speeds_[check_ctx(ctx)]; }

  void set_listener(SpeedChangeListener l) { listener_ = std::move(l); }

 private:
  static CtxId check_ctx(CtxId ctx);
  void recompute();
  void notify();

  CoreId id_;
  /// recompute() runs on every priority write and activity transition, so
  /// it is a lookup rather than the context_speeds scan.
  std::shared_ptr<const CoreSpeedTable> table_;
  std::array<HwPrio, 2> prio_{};
  std::array<bool, 2> active_{};
  std::array<double, 2> speeds_{};
  SpeedChangeListener listener_;
};

}  // namespace hpcs::p5
