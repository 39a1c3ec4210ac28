#pragma once
// The Load Imbalance Detector (paper §IV-B): the component that decides
// WHETHER the heuristic should act. It keeps the latest metric utilization
// of every SCHED_HPC task and
//   (1) declares the application balanced when every task is a high
//       utilization task — in a stable state the scheduler stops changing
//       priorities instead of oscillating between two solutions;
//   (2) detects behaviour changes: when a task's last-iteration
//       classification disagrees with its global classification for
//       `reset_after` consecutive iterations, the task's utilization history
//       is restarted so the heuristic re-converges quickly.

#include <map>

#include "common/types.h"
#include "hpcsched/heuristics.h"
#include "hpcsched/iteration_tracker.h"

namespace hpcs::hpc {

class ImbalanceDetector {
 public:
  /// Record the metric utilization of a task's just-completed iteration.
  void record(Pid pid, double metric_util);

  /// A task left the HPC class or exited.
  void forget(Pid pid);

  /// True when every tracked task is in the high-utilization band: the
  /// application is balanced and priorities should be left alone.
  [[nodiscard]] bool balanced(const HpcTunables& tun) const;

  /// Behaviour-change test for one task; updates the mismatch streak inside
  /// `s` and returns true when the history should be reset.
  [[nodiscard]] bool behaviour_changed(TaskIterStats& s, const HpcTunables& tun) const;

 private:
  std::map<Pid, double> util_;
};

}  // namespace hpcs::hpc
