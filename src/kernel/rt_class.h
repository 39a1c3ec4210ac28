#pragma once
// The real-time class: 100 round-robin run-queue lists, one per RT priority
// (paper §III). Essentially the old O(1) scheduler algorithm: pick the first
// task of the highest non-empty priority list. SCHED_FIFO tasks keep the head
// until they yield or block; SCHED_RR tasks rotate when their slice expires.

#include <deque>
#include <vector>

#include "kernel/sched_class.h"

namespace hpcs::kern {

inline constexpr int kRtPrioLevels = 100;

struct RtRq final : ClassRq {
  /// One list per RT priority, sized by the first insertion: most runs have
  /// no RT task, and 100 empty deques per CPU are not free.
  std::vector<std::deque<Task*>> queues;
  int nr = 0;
};

class RtClass final : public SchedClass {
 public:
  explicit RtClass(Duration rr_slice = Duration::milliseconds(100)) : rr_slice_(rr_slice) {}

  [[nodiscard]] const char* name() const override { return "rt"; }
  [[nodiscard]] bool owns(Policy p) const override {
    return p == Policy::kFifo || p == Policy::kRr;
  }
  [[nodiscard]] std::unique_ptr<ClassRq> make_rq() const override {
    return std::make_unique<RtRq>();
  }

  void enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) override;
  void dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) override;
  Task* pick_next(Kernel& k, Rq& rq) override;
  void put_prev(Kernel& k, Rq& rq, Task& t) override;
  void task_tick(Kernel& k, Rq& rq, Task& t) override;
  [[nodiscard]] bool wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) override;
  void yield(Kernel& k, Rq& rq, Task& t) override;
  Task* steal_candidate(Kernel& k, Rq& rq) override;

 private:
  static RtRq& rrq(Rq& rq, int index);
  static std::deque<Task*>& list_of(RtRq& r, const Task& t);
  Duration rr_slice_;
};

}  // namespace hpcs::kern
