#pragma once
// Public entry point of the HPCSched library: install the SCHED_HPC class,
// with its tunables fixed for the run, into a simulated kernel. This is the
// header a downstream user includes; see examples/quickstart.cpp.

#include "hpcsched/hpc_class.h"

namespace hpcs::hpc {

struct HpcSchedConfig {
  HpcTunables tunables{};
  HeuristicKind heuristic = HeuristicKind::kUniform;
};

/// Create the HPC scheduling class and insert it between the real-time and
/// CFS classes (paper Fig. 1b). Must be called before Kernel::start(). The
/// class steers hardware priorities through the POWER5 mechanism, or through
/// the Null mechanism when the kernel ignores them
/// (KernelConfig::hw_prio_enabled = false: a non-POWER architecture, policy
/// benefits only, §IV-C).
HpcSchedClass& install_hpcsched(kern::Kernel& k, const HpcSchedConfig& cfg = {});

}  // namespace hpcs::hpc
