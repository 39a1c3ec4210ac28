#pragma once
// Per-task iteration accounting (paper §IV-B, Fig. 2). MPI tasks alternate a
// computing phase (runnable, t_R) and a waiting phase (blocked, t_W); one
// iteration is t_i = t_R + t_W. Utilization of iteration i is U_i = t_R/t_i;
// the global utilization is U = sum(t_R) / sum(t_i). The sleeping time is
// accounted when the task wakes at the beginning of the new iteration.

#include <map>
#include <optional>

#include "common/types.h"
#include "hpcsched/tunables.h"

namespace hpcs::hpc {

/// Utilization statistics of one HPC task.
struct TaskIterStats {
  int iterations = 0;          ///< completed iterations since last reset
  int total_iterations = 0;    ///< completed iterations since task start
  Duration run_sum = Duration::zero();   ///< sum of t_R since last reset
  Duration wait_sum = Duration::zero();  ///< sum of t_W since last reset
  double util_last = 100.0;    ///< U_i of the last completed iteration (percent)
  double util_global = 100.0;  ///< global U since last reset (percent)
  double util_global_prev = 100.0;  ///< global U up to the previous iteration
  int mismatch_streak = 0;     ///< consecutive same-direction classification mismatches
  int last_mismatch_band = -1; ///< band of the last mismatching iteration
  int resets = 0;              ///< behaviour changes detected

  // Exponential moving statistics of per-iteration utilization; used by the
  // Hybrid heuristic to detect dynamic phases.
  double util_ema = 100.0;
  double util_emvar = 0.0;

  // Phase bookkeeping. An iteration accumulates run and wait spans until a
  // wakeup finds a non-trivial computing phase banked (see min_iteration).
  SimTime run_start = SimTime::zero();
  SimTime sleep_start = SimTime::zero();
  Duration open_run = Duration::zero();   ///< computing time of the open iteration
  Duration open_wait = Duration::zero();  ///< waiting time of the open iteration
  bool in_run = false;
  bool has_history = false;  ///< at least one run phase recorded
};

/// Completed-iteration sample handed to the heuristic.
struct IterationSample {
  Duration run = Duration::zero();
  Duration wait = Duration::zero();
  double util_last = 0.0;    ///< percent
  double util_global = 0.0;  ///< percent, including this iteration
  int iteration = 0;         ///< 1-based, since task start
};

/// Tracks iteration phases for every SCHED_HPC task.
class IterationTracker {
 public:
  /// The task started (or resumed) a computing phase at `now`.
  void on_run_begin(Pid pid, SimTime now);

  /// The task blocked at `now`, ending its computing phase. Returns false if
  /// no run phase was in progress (e.g. first observation).
  bool on_run_end(Pid pid, SimTime now);

  /// The task woke at `now`, completing an iteration (run + wait). Returns
  /// the sample, or nullopt when there was no complete iteration yet.
  /// Automatically begins the next run phase.
  std::optional<IterationSample> on_wakeup(Pid pid, SimTime now);

  /// Restart the utilization history of a task (behaviour change detected).
  void reset_history(Pid pid);

  [[nodiscard]] const TaskIterStats* stats(Pid pid) const;
  [[nodiscard]] TaskIterStats* stats_mutable(Pid pid);
  [[nodiscard]] const std::map<Pid, TaskIterStats>& all() const { return stats_; }
  void forget(Pid pid) { stats_.erase(pid); }

  /// Minimum computing phase for a wakeup to close an iteration. Wakeups
  /// with (almost) no computation banked — the double wakeups of an
  /// mpi_waitall whose requests complete one after another, or a message
  /// arrival that satisfies only part of a wait — extend the current wait
  /// phase instead of producing a spurious 0%-utilization iteration
  /// (Fig. 2: an iteration is a computing phase PLUS a waiting phase).
  Duration min_iteration = Duration::microseconds(100);

 private:
  static void begin_run(TaskIterStats& s, SimTime now) {
    s.run_start = now;
    s.in_run = true;
  }

  std::map<Pid, TaskIterStats> stats_;
};

}  // namespace hpcs::hpc
