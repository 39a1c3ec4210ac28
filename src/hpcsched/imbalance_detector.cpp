#include "hpcsched/imbalance_detector.h"

#include <algorithm>

namespace hpcs::hpc {

void ImbalanceDetector::record(Pid pid, double metric_util) { util_[pid] = metric_util; }

void ImbalanceDetector::forget(Pid pid) { util_.erase(pid); }

bool ImbalanceDetector::balanced(const HpcTunables& tun) const {
  if (util_.empty()) return true;
  return std::all_of(util_.begin(), util_.end(), [&](const auto& kv) {
    return classify_band(kv.second, tun) == 2;
  });
}

bool ImbalanceDetector::behaviour_changed(TaskIterStats& s, const HpcTunables& tun) const {
  const int last_band = classify_band(s.util_last, tun);
  const int global_band = classify_band(s.util_global, tun);
  if (last_band == global_band) {
    s.mismatch_streak = 0;
    return false;
  }
  // A genuine behaviour change pushes the last-iteration utilization into
  // the SAME new band for several consecutive iterations. Alternating
  // mismatches (e.g. the 100%/0% sub-iteration pattern of a rank waking once
  // per waitall completion) are a stable regime, not a change — they must
  // not wipe the time-weighted history.
  if (s.mismatch_streak > 0 && last_band == s.last_mismatch_band) {
    ++s.mismatch_streak;
  } else {
    s.mismatch_streak = 1;
  }
  s.last_mismatch_band = last_band;
  return s.mismatch_streak >= tun.reset_after;
}

}  // namespace hpcs::hpc
