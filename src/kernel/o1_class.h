#pragma once
// The old O(1) scheduler (paper §III): the algorithm CFS replaced in Linux
// 2.6.23. Per-CPU active/expired priority arrays (40 levels for normal
// tasks), a bitmap for O(1) lookup, per-priority time slices, an
// interactivity bonus derived from sleep behaviour, and the famous zero-cost
// array swap when the active array drains.
//
// Implemented as an alternative "fair" scheduling class so experiments can
// run the paper's Baseline on either scheduler generation
// (KernelConfig::fair_scheduler).

#include <array>
#include <deque>
#include <map>

#include "kernel/sched_class.h"

namespace hpcs::kern {

/// Per-task O(1) state, kept in a side table inside the class (the real
/// kernel embeds it in task_struct).
struct O1TaskState {
  Duration sleep_avg = Duration::zero();
  SimTime sleep_since = SimTime::zero();
  bool in_expired = false;  ///< queued on the expired array
};

inline constexpr int kO1Levels = 40;  ///< normal-task priorities 100..139 -> 0..39

struct O1Rq final : ClassRq {
  struct PrioArray {
    std::array<std::deque<Task*>, kO1Levels> queues;
    std::uint64_t bitmap = 0;
    int nr = 0;
  };
  PrioArray arrays[2];
  int active = 0;  ///< index of the active array; expired is (active^1)
  std::int64_t swaps = 0;
};

class O1Class final : public SchedClass {
 public:
  /// Time slice at nice 0; scales linearly with static priority, clamped to
  /// [kMinSlice, 2*kBaseSlice] — the shape of the 2.6 task_timeslice().
  static constexpr Duration kBaseSlice = Duration::milliseconds(100);
  static constexpr Duration kMinSlice = Duration::milliseconds(5);
  /// Sleep time accumulates into sleep_avg up to this ceiling.
  static constexpr Duration kMaxSleepAvg = Duration::seconds(1.0);
  /// Maximum interactivity bonus (priority levels), the kernel's MAX_BONUS/2.
  static constexpr int kMaxBonus = 5;
  /// Scheduler-path cost of an O(1) wakeup (cheaper than CFS: array insert).
  static constexpr Duration kWakeupCost = Duration::microseconds(15);

  [[nodiscard]] const char* name() const override { return "o1"; }
  [[nodiscard]] bool owns(Policy p) const override {
    return p == Policy::kNormal || p == Policy::kBatch;
  }
  [[nodiscard]] std::unique_ptr<ClassRq> make_rq() const override {
    return std::make_unique<O1Rq>();
  }

  void enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) override;
  void dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) override;
  Task* pick_next(Kernel& k, Rq& rq) override;
  void put_prev(Kernel& k, Rq& rq, Task& t) override;
  void task_tick(Kernel& k, Rq& rq, Task& t) override;
  [[nodiscard]] bool wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) override;
  void yield(Kernel& k, Rq& rq, Task& t) override;
  Task* steal_candidate(Kernel& k, Rq& rq) override;
  [[nodiscard]] bool wants_balance() const override { return true; }
  [[nodiscard]] Duration wakeup_cost() const override { return kWakeupCost; }

  /// Static priority level (0..39) from the nice value.
  [[nodiscard]] static int static_level(int nice) { return nice + 20; }

  /// Dynamic level after the interactivity bonus.
  [[nodiscard]] int dynamic_level(const Task& t) const;

  /// Time slice granted to a task (scales with static priority).
  [[nodiscard]] Duration timeslice(const Task& t) const;

  /// True when the task's sleep_avg marks it interactive (re-queued to the
  /// active array on expiry instead of the expired one).
  [[nodiscard]] bool interactive(const Task& t) const;

  [[nodiscard]] std::int64_t array_swaps(Rq& rq) const {
    return static_cast<O1Rq&>(*rq.class_rqs[static_cast<std::size_t>(index())]).swaps;
  }

 private:
  static O1Rq& orq(Rq& rq, int index);
  O1TaskState& state(const Task& t);
  static void push(O1Rq::PrioArray& a, int level, Task* t, bool front);
  static bool erase(O1Rq::PrioArray& a, int level, Task* t);

  std::map<Pid, O1TaskState> states_;
};

}  // namespace hpcs::kern
