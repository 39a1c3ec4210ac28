#pragma once
// Tunable parameters of the HPC scheduler (paper §IV-B). The paper tunes
// them at run time through sysfs; here every run fixes them when it is built
// (HpcSchedConfig::tunables, ExperimentConfig::hpc).

#include "common/types.h"

namespace hpcs::hpc {

struct HpcTunables {
  /// Utilization (percent) below which a task is a "low utilization" task.
  int low_util = 65;
  /// Utilization (percent) above which a task is a "high utilization" task.
  int high_util = 85;
  /// Hardware priority range the scheduler explores: [4,6] keeps the maximum
  /// priority difference at +/-2 (paper §IV-B, drawing on [4]).
  int min_prio = 4;
  int max_prio = 6;
  /// Adaptive heuristic weights, in percent (G + L = 100). G close to 100
  /// makes Adaptive behave like Uniform; the paper's aggressive setting is
  /// G=10 / L=90.
  int adaptive_g_pct = 10;
  /// Consecutive same-direction iterations of classification mismatch
  /// between the last and the global utilization after which the Load
  /// Imbalance Detector declares a behaviour change and restarts a task's
  /// utilization history.
  int reset_after = 3;
  /// Round-robin time slice of the SCHED_HPC RR policy.
  Duration rr_slice = Duration::milliseconds(100);
};

}  // namespace hpcs::hpc
