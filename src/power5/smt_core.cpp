#include "power5/smt_core.h"

namespace hpcs::p5 {

bool SmtCore::set_priority(CtxId ctx, HwPrio p) {
  check_ctx(ctx);
  if (prio_[ctx] == p) return false;
  prio_[ctx] = p;
  recompute();
  notify();
  return true;
}

}  // namespace hpcs::p5
