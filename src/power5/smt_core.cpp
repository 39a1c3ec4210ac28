#include "power5/smt_core.h"

#include "common/check.h"

namespace hpcs::p5 {

CtxId SmtCore::check_ctx(CtxId ctx) {
  HPCS_CHECK_MSG(ctx == 0 || ctx == 1, "context index must be 0 or 1");
  return ctx;
}

bool SmtCore::set_priority(CtxId ctx, HwPrio p) {
  check_ctx(ctx);
  if (prio_[ctx] == p) return false;
  prio_[ctx] = p;
  recompute();
  notify();
  return true;
}

bool SmtCore::set_active(CtxId ctx, bool active) {
  check_ctx(ctx);
  if (active_[ctx] == active) return false;
  active_[ctx] = active;
  recompute();
  notify();
  return true;
}

void SmtCore::recompute() {
  const CoreSpeeds s = (*table_)(prio_[0], active_[0], prio_[1], active_[1]);
  speeds_[0] = s.a;
  speeds_[1] = s.b;
}

void SmtCore::notify() {
  if (listener_) listener_(id_);
}

}  // namespace hpcs::p5
