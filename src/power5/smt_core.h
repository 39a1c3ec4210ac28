#pragma once
// One POWER5 core: two SMT contexts whose speeds are coupled through the
// decode-priority arbitration. The kernel updates context state (priority,
// active) and subscribes to speed changes so in-flight compute phases can be
// re-linearized.

#include <array>
#include <memory>

#include "common/check.h"
#include "common/types.h"
#include "power5/hw_priority.h"
#include "power5/throughput.h"

namespace hpcs::p5 {

/// Index of a context within its core (0 or 1).
using CtxId = int;

class SmtCore {
 public:
  /// Called with the listener's context whenever the speed of either
  /// context may have changed. A plain function pointer: it runs on every
  /// activity transition and priority write.
  using SpeedChangeListener = void (*)(void* ctx, CoreId core);

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
  /// Mark a context as executing work (true) or idle (false). Returns true
  /// if it changed.
  bool set_active(CtxId ctx, bool active) {
    check_ctx(ctx);
    if (active_[ctx] == active) return false;
    active_[ctx] = active;
    recompute();
    notify();
    return true;
  }

  [[nodiscard]] HwPrio priority(CtxId ctx) const { return prio_[check_ctx(ctx)]; }
  [[nodiscard]] bool active(CtxId ctx) const { return active_[check_ctx(ctx)]; }

  /// Current throughput of a context relative to ST mode (0 when inactive).
  [[nodiscard]] double speed(CtxId ctx) const { return speeds_[check_ctx(ctx)]; }

  /// Install the speed-change listener (nullptr: none).
  void set_listener(SpeedChangeListener fn, void* ctx) {
    listener_ = fn;
    listener_ctx_ = ctx;
  }

 private:
  static CtxId check_ctx(CtxId ctx) {
    HPCS_CHECK_MSG(ctx == 0 || ctx == 1, "context index must be 0 or 1");
    return ctx;
  }
  void recompute() {
    const CoreSpeeds s = (*table_)(prio_[0], active_[0], prio_[1], active_[1]);
    speeds_[0] = s.a;
    speeds_[1] = s.b;
  }
  void notify() {
    if (listener_ != nullptr) listener_(listener_ctx_, id_);
  }

  CoreId id_;
  /// recompute() runs on every priority write and activity transition, so
  /// it is a lookup rather than the context_speeds scan.
  std::shared_ptr<const CoreSpeedTable> table_;
  std::array<HwPrio, 2> prio_{};
  std::array<bool, 2> active_{};
  std::array<double, 2> speeds_{};
  SpeedChangeListener listener_ = nullptr;
  void* listener_ctx_ = nullptr;
};

}  // namespace hpcs::p5
