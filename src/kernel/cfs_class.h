#pragma once
// The Completely Fair Scheduler class (paper §III): tasks ordered by
// virtual runtime; the leftmost (smallest) task runs next. No fixed time
// quantum — each task gets a slice proportional to the latency target
// divided by the number of runnable tasks.

#include <cstdint>
#include <utility>
#include <vector>

#include "kernel/sched_class.h"

namespace hpcs::kern {

struct CfsTunables {
  Duration latency = Duration::milliseconds(20);       ///< target max wait (paper: 20 ms)
  /// Scheduler-path cost of a CFS wakeup (see SchedClass::wakeup_cost).
  Duration wakeup_cost = Duration::microseconds(25);
};

/// Key of the CFS queue: (vruntime ns, pid) — pid breaks ties so keys are
/// unique.
using CfsKey = std::pair<std::int64_t, Pid>;

struct CfsRq final : ClassRq {
  /// Queued tasks (never the running one), sorted by descending key: the
  /// leftmost task of Linux's rbtree is at the back, so picking it is a
  /// pop_back. A queue holds a handful of tasks, where shifting a few
  /// entries beats a tree, and a vector that keeps its capacity allocates
  /// nothing per switch.
  std::vector<std::pair<CfsKey, Task*>> queue;
  Duration min_vruntime = Duration::zero();
};

class CfsClass final : public SchedClass {
 public:
  /// Shortest slice, however many tasks are runnable.
  static constexpr Duration kMinGranularity = Duration::milliseconds(4);
  /// How far a woken task's vruntime must trail the current task's before
  /// the wakeup preempts it.
  static constexpr Duration kWakeupGranularity = Duration::milliseconds(10);

  explicit CfsClass(CfsTunables tunables = {}) : tun_(tunables) {}

  [[nodiscard]] const char* name() const override { return "fair"; }
  [[nodiscard]] bool owns(Policy p) const override {
    return p == Policy::kNormal || p == Policy::kBatch;
  }
  [[nodiscard]] std::unique_ptr<ClassRq> make_rq() const override {
    return std::make_unique<CfsRq>();
  }

  void enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) override;
  void dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) override;
  Task* pick_next(Kernel& k, Rq& rq) override;
  void put_prev(Kernel& k, Rq& rq, Task& t) override;
  void task_tick(Kernel& k, Rq& rq, Task& t) override;
  void replay_task_ticks(Kernel& k, Rq& rq, Task& t, std::int64_t n) override;
  [[nodiscard]] bool wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) override;
  void yield(Kernel& k, Rq& rq, Task& t) override;
  Task* steal_candidate(Kernel& k, Rq& rq) override;
  [[nodiscard]] bool wants_balance() const override { return true; }
  [[nodiscard]] Duration wakeup_cost() const override { return tun_.wakeup_cost; }

  /// CFS load weight for a nice level (-20..19); the canonical kernel table.
  [[nodiscard]] static std::int64_t nice_to_weight(int nice);

  /// Scale a real-time delta into vruntime for the given nice level. Every
  /// accounting flush of a running task calls it, so it is inline.
  [[nodiscard]] static Duration calc_delta_fair(Duration delta, int nice) {
    if (nice == 0) return delta;  // weight 1024 / 1024
    return Duration(delta.ns() * 1024 / nice_to_weight(nice));
  }

  /// The slice a task would get with `nr_running` competitors.
  [[nodiscard]] Duration slice_for(int nr_running) const;

 private:
  static CfsRq& crq(Rq& rq, int index);
  void update_min_vruntime(CfsRq& c, const Task* curr_of_class) const;

  CfsTunables tun_;
};

}  // namespace hpcs::kern
