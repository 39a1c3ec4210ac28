#pragma once
// The SCHED_HPC scheduling class (paper §IV), inserted between the real-time
// and CFS classes (Fig. 1b). Run-queue algorithm: a simple FIFO or
// round-robin list — with one MPI process per CPU a list is as good as a
// red-black tree and much cheaper. Every wakeup of an HPC task closes an
// iteration: the Load Imbalance Detector and the configured heuristic then
// choose the hardware priority the Mechanism applies before the next
// iteration starts.

#include <cstdint>
#include <memory>
#include <vector>

#include "hpcsched/heuristics.h"
#include "hpcsched/imbalance_detector.h"
#include "hpcsched/iteration_tracker.h"
#include "hpcsched/mechanism.h"
#include "hpcsched/tunables.h"
#include "kernel/sched_class.h"

namespace hpcs::hpc {

struct HpcRq final : kern::ClassRq {
  /// Queued tasks, head first. It holds a task or two, so a vector that
  /// keeps its capacity beats a deque's chunks.
  std::vector<kern::Task*> queue;
};

class HpcSchedClass final : public kern::SchedClass {
 public:
  HpcSchedClass(HpcTunables tunables, std::unique_ptr<Heuristic> heuristic,
                std::unique_ptr<Mechanism> mechanism);

  [[nodiscard]] const char* name() const override { return "hpc"; }
  [[nodiscard]] bool owns(kern::Policy p) const override { return kern::is_hpc_policy(p); }
  [[nodiscard]] std::unique_ptr<kern::ClassRq> make_rq() const override {
    return std::make_unique<HpcRq>();
  }

  void enqueue(kern::Kernel& k, kern::Rq& rq, kern::Task& t, bool wakeup) override;
  void dequeue(kern::Kernel& k, kern::Rq& rq, kern::Task& t, bool sleep) override;
  kern::Task* pick_next(kern::Kernel& k, kern::Rq& rq) override;
  void put_prev(kern::Kernel& k, kern::Rq& rq, kern::Task& t) override;
  void task_tick(kern::Kernel& k, kern::Rq& rq, kern::Task& t) override;
  void replay_task_ticks(kern::Kernel& k, kern::Rq& rq, kern::Task& t, std::int64_t n) override;
  [[nodiscard]] bool wakeup_preempt(kern::Kernel& k, kern::Rq& rq, kern::Task& curr,
                                    kern::Task& woken) override;
  void yield(kern::Kernel& k, kern::Rq& rq, kern::Task& t) override;
  kern::Task* steal_candidate(kern::Kernel& k, kern::Rq& rq) override;
  [[nodiscard]] bool wants_balance() const override { return true; }
  /// Scheduler-path cost of an HPC wakeup: the round-robin head insert is
  /// O(1) and only competes with other HPC tasks.
  [[nodiscard]] Duration wakeup_cost() const override { return Duration::microseconds(2); }

  [[nodiscard]] IterationTracker& tracker() { return tracker_; }

  [[nodiscard]] std::int64_t priority_changes() const { return prio_changes_; }
  [[nodiscard]] std::int64_t iterations_observed() const { return iterations_; }
  [[nodiscard]] std::int64_t history_resets() const { return resets_; }

 private:
  static HpcRq& hrq(kern::Rq& rq, int index);
  void on_iteration_complete(kern::Kernel& k, kern::Task& t, const IterationSample& sample);

  HpcTunables tun_;
  std::unique_ptr<Heuristic> heuristic_;
  std::unique_ptr<Mechanism> mechanism_;
  IterationTracker tracker_;
  ImbalanceDetector detector_;
  std::int64_t prio_changes_ = 0;
  std::int64_t iterations_ = 0;
  std::int64_t resets_ = 0;
};

}  // namespace hpcs::hpc
