// Compile-time contract checks: the SchedClassImpl concept
// (kernel/sched_class.h). The value is in the static_asserts — the contract
// exists so violations fail the build.

#include <memory>

#include <gtest/gtest.h>

#include "hpcsched/hpc_class.h"
#include "kernel/cfs_class.h"
#include "kernel/idle_class.h"
#include "kernel/o1_class.h"
#include "kernel/rt_class.h"
#include "kernel/sched_class.h"

namespace {

// ---------------------------------------------------------------------------
// SchedClassImpl: every in-tree class satisfies it; broken shapes don't.

static_assert(hpcs::kern::SchedClassImpl<hpcs::kern::CfsClass>);
static_assert(hpcs::kern::SchedClassImpl<hpcs::kern::O1Class>);
static_assert(hpcs::kern::SchedClassImpl<hpcs::kern::RtClass>);
static_assert(hpcs::kern::SchedClassImpl<hpcs::kern::IdleClass>);
static_assert(hpcs::kern::SchedClassImpl<hpcs::hpc::HpcSchedClass>);

// The abstract interface is not itself an implementation.
static_assert(!hpcs::kern::SchedClassImpl<hpcs::kern::SchedClass>);

// A class that forgets a hook stays abstract and is rejected.
class ForgotPickNext : public hpcs::kern::SchedClass {
 public:
  [[nodiscard]] const char* name() const override { return "broken"; }
  [[nodiscard]] bool owns(hpcs::kern::Policy) const override { return false; }
  [[nodiscard]] std::unique_ptr<hpcs::kern::ClassRq> make_rq() const override {
    return nullptr;
  }
  void enqueue(hpcs::kern::Kernel&, hpcs::kern::Rq&, hpcs::kern::Task&, bool) override {}
  void dequeue(hpcs::kern::Kernel&, hpcs::kern::Rq&, hpcs::kern::Task&, bool) override {}
  // pick_next missing
  void put_prev(hpcs::kern::Kernel&, hpcs::kern::Rq&, hpcs::kern::Task&) override {}
  void task_tick(hpcs::kern::Kernel&, hpcs::kern::Rq&, hpcs::kern::Task&) override {}
  [[nodiscard]] bool wakeup_preempt(hpcs::kern::Kernel&, hpcs::kern::Rq&, hpcs::kern::Task&,
                                    hpcs::kern::Task&) override {
    return false;
  }
};
static_assert(!hpcs::kern::SchedClassImpl<ForgotPickNext>);

// A standalone type with hook-shaped methods but no SchedClass base is not a
// scheduling class either (the Kernel stores SchedClass pointers).
struct NotDerived {
  [[nodiscard]] const char* name() const { return "free-floating"; }
};
static_assert(!hpcs::kern::SchedClassImpl<NotDerived>);

}  // namespace
