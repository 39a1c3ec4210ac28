#include "hpcsched/iteration_tracker.h"

namespace hpcs::hpc {

void IterationTracker::on_run_begin(Pid pid, SimTime now) { begin_run(stats_[pid], now); }

bool IterationTracker::on_run_end(Pid pid, SimTime now) {
  TaskIterStats& s = stats_[pid];
  s.sleep_start = now;
  if (!s.in_run) return false;
  s.in_run = false;
  s.has_history = true;
  s.open_run += now - s.run_start;
  // The iteration closes (and t_W is banked) at the next qualifying wakeup.
  return true;
}

std::optional<IterationSample> IterationTracker::on_wakeup(Pid pid, SimTime now) {
  TaskIterStats& s = stats_[pid];
  if (!s.has_history || s.in_run) {
    // First observation of this task: just open the run phase.
    begin_run(s, now);
    return std::nullopt;
  }
  s.open_wait += now - s.sleep_start;
  if (s.open_run < min_iteration) {
    // No real computing phase yet: this wakeup continues the waiting phase
    // of the open iteration (partial waitall completions, spurious wakes).
    begin_run(s, now);
    return std::nullopt;
  }
  const Duration run = s.open_run;
  const Duration wait = s.open_wait;
  s.open_run = Duration::zero();
  s.open_wait = Duration::zero();

  s.run_sum += run;
  s.wait_sum += wait;
  ++s.iterations;
  ++s.total_iterations;

  IterationSample sample;
  sample.run = run;
  sample.wait = wait;
  sample.iteration = s.total_iterations;
  const Duration span = run + wait;
  sample.util_last = span > Duration::zero() ? 100.0 * (run / span) : 100.0;

  s.util_global_prev = s.util_global;
  const Duration total = s.run_sum + s.wait_sum;
  s.util_global = total > Duration::zero() ? 100.0 * (s.run_sum / total) : 100.0;
  sample.util_global = s.util_global;
  s.util_last = sample.util_last;

  // EMA mean/variance of per-iteration utilization (Hybrid heuristic input).
  constexpr double kEmaAlpha = 0.3;
  const double d = sample.util_last - s.util_ema;
  s.util_ema += kEmaAlpha * d;
  s.util_emvar = (1.0 - kEmaAlpha) * (s.util_emvar + kEmaAlpha * d * d);

  begin_run(s, now);
  return sample;
}

void IterationTracker::reset_history(Pid pid) {
  TaskIterStats& s = stats_[pid];
  s.run_sum = Duration::zero();
  s.wait_sum = Duration::zero();
  s.iterations = 0;
  s.util_global = s.util_last;
  s.util_global_prev = s.util_last;
  s.mismatch_streak = 0;
  s.last_mismatch_band = -1;
  ++s.resets;
}

const TaskIterStats* IterationTracker::stats(Pid pid) const {
  const auto it = stats_.find(pid);
  return it == stats_.end() ? nullptr : &it->second;
}

TaskIterStats* IterationTracker::stats_mutable(Pid pid) {
  const auto it = stats_.find(pid);
  return it == stats_.end() ? nullptr : &it->second;
}

}  // namespace hpcs::hpc
