#include "obs/tracepoint.h"

#include "common/check.h"

namespace hpcs::obs {

const char* tp_name(TpId id) {
  switch (id) {
    case TpId::kTpSchedSwitch: return "sched_switch";
    case TpId::kTpWake: return "sched_wake";
    case TpId::kTpMigrate: return "sched_migrate";
    case TpId::kTpBalancePull: return "sched_balance_pull";
    case TpId::kTpHwPrio: return "hw_prio";
    case TpId::kTpHpcIteration: return "hpc_iteration";
    case TpId::kTpHpcImbalance: return "hpc_imbalance";
    case TpId::kTpHpcPrioChange: return "hpc_prio_change";
    case TpId::kTpHpcHistoryReset: return "hpc_history_reset";
    case TpId::kTpCount: break;
  }
  return "?";
}

TraceRing::TraceRing(std::size_t capacity) {
  std::size_t cap = 2;
  while (cap < capacity) cap <<= 1;
  buf_.resize(cap);
  mask_ = cap - 1;
}

std::vector<TraceEntry> TraceRing::entries() const {
  std::vector<TraceEntry> out;
  out.reserve(size());
  const std::uint64_t first = head_ < buf_.size() ? 0 : head_ - buf_.size();
  for (std::uint64_t i = first; i < head_; ++i) {
    out.push_back(buf_[i & mask_]);
  }
  return out;
}

}  // namespace hpcs::obs
