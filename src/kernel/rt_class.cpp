#include "kernel/rt_class.h"

#include <algorithm>

#include "common/check.h"
#include "kernel/kernel.h"

namespace hpcs::kern {

HPCS_ASSERT_SCHED_CLASS(RtClass);

RtRq& RtClass::rrq(Rq& rq, int index) {
  return static_cast<RtRq&>(*rq.class_rqs[static_cast<std::size_t>(index)]);
}

std::deque<Task*>& RtClass::list_of(RtRq& r, const Task& t) {
  if (r.queues.empty()) r.queues.resize(kRtPrioLevels);
  return r.queues[static_cast<std::size_t>(t.rt_prio)];
}

void RtClass::enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) {
  (void)k;
  (void)wakeup;
  RtRq& r = rrq(rq, index());
  HPCS_CHECK(t.rt_prio >= 0 && t.rt_prio < kRtPrioLevels);
  list_of(r, t).push_back(&t);
  ++r.nr;
  if (t.policy() == Policy::kRr && t.slice_left <= Duration::zero()) {
    t.slice_left = rr_slice_;
  }
}

void RtClass::dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) {
  (void)k;
  (void)sleep;
  RtRq& r = rrq(rq, index());
  if (r.nr == 0) return;
  auto& q = list_of(r, t);
  auto it = std::find(q.begin(), q.end(), &t);
  if (it != q.end()) {
    q.erase(it);
    --r.nr;
  }
  // If the task is currently running it was already removed by pick_next.
}

Task* RtClass::pick_next(Kernel& k, Rq& rq) {
  (void)k;
  RtRq& r = rrq(rq, index());
  for (auto& q : r.queues) {
    if (!q.empty()) {
      Task* t = q.front();
      q.pop_front();
      --r.nr;
      return t;
    }
  }
  return nullptr;
}

void RtClass::put_prev(Kernel& k, Rq& rq, Task& t) {
  (void)k;
  RtRq& r = rrq(rq, index());
  // FIFO semantics (and an RR task whose slice is not exhausted) resume at
  // the head of their priority list; an expired RR task rotates to the tail.
  auto& q = list_of(r, t);
  if (t.policy() == Policy::kRr && t.slice_left <= Duration::zero()) {
    t.slice_left = rr_slice_;
    q.push_back(&t);
  } else {
    q.push_front(&t);
  }
  ++r.nr;
}

void RtClass::task_tick(Kernel& k, Rq& rq, Task& t) {
  if (t.policy() != Policy::kRr) return;  // FIFO: no time slicing
  t.slice_left -= k.tick_period();
  if (t.slice_left <= Duration::zero()) {
    RtRq& r = rrq(rq, index());
    // Rotate only if a peer of the same priority is waiting.
    if (r.nr > 0 && !list_of(r, t).empty()) {
      rq.need_resched = true;
    } else {
      t.slice_left = rr_slice_;
    }
  }
}

bool RtClass::wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) {
  (void)k;
  (void)rq;
  return woken.rt_prio < curr.rt_prio;  // strictly higher RT priority only
}

void RtClass::yield(Kernel& k, Rq& rq, Task& t) {
  (void)k;
  (void)rq;
  // Expire the slice so put_prev rotates the task to the tail.
  t.slice_left = Duration::zero();
}

Task* RtClass::steal_candidate(Kernel& k, Rq& rq) {
  (void)k;
  RtRq& r = rrq(rq, index());
  for (auto it = r.queues.rbegin(); it != r.queues.rend(); ++it) {
    for (Task* t : *it) {
      if (t->pinned_cpu == kInvalidCpu) return t;
    }
  }
  return nullptr;
}

}  // namespace hpcs::kern
