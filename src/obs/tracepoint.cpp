#include "obs/tracepoint.h"

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

}  // namespace hpcs::obs
