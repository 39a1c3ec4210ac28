#pragma once
// Tracepoints: kernel-ftrace-style count sites on the simulator's hot paths.
//
// A tracepoint id is a compile-time constant (the kTp* enumerators below;
// Recorder::record takes it as a template argument, so a record site that
// passes anything else does not compile). A record site is the
// HPCS_TRACEPOINT macro: it bumps the hit counter of its id, in the window
// its simulated time falls in. When observability is off the recorder
// pointer is null and the whole site compiles down to a single predictable
// branch — no call, and the time operand is not evaluated.

#include <cstddef>
#include <cstdint>

namespace hpcs::obs {

/// Every tracepoint in the simulator. Append only — the enumerator order is
/// the manifest order of the per-tracepoint hit counters (their names are
/// in recorder.cpp), which the deterministic-manifest contract depends on
/// (docs/observability.md).
enum class TpId : std::uint16_t {
  kTpSchedSwitch = 0,    ///< context switch
  kTpWake,               ///< task wakeup enqueued
  kTpMigrate,            ///< task migrated to another CPU
  kTpBalancePull,        ///< balancer pulled a task
  kTpHwPrio,             ///< hardware priority request
  kTpHpcIteration,       ///< HPC iteration closed
  kTpHpcImbalance,       ///< imbalance detected
  kTpHpcPrioChange,      ///< heuristic changed a priority
  kTpHpcHistoryReset,    ///< behaviour change reset a task's history
  kTpCount
};

inline constexpr std::size_t kTpCount = static_cast<std::size_t>(TpId::kTpCount);

}  // namespace hpcs::obs

/// Record site: a single branch on the recorder pointer when disabled. The
/// id must be a kTp* compile-time constant other than kTpCount.
#define HPCS_TRACEPOINT(rec, id, when)  \
  do {                                  \
    if ((rec) != nullptr) {             \
      (rec)->record<id>((when));        \
    }                                   \
  } while (0)
