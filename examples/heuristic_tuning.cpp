// Example: tuning the HPC scheduler's heuristic. The paper tunes it at run
// time through sysfs (§IV-B); here each run fixes its tunables when it is
// built, through ExperimentConfig::hpc. Sweeps the Adaptive G/L split on a
// dynamic workload and prints the trade-off between responsiveness and
// over-reaction.

#include <cstdio>

#include "analysis/experiment.h"
#include "workloads/metbenchvar.h"

using namespace hpcs;

int main() {
  std::printf("== tuning the Adaptive heuristic: G (history) vs L (recency) ==\n\n");

  wl::MetBenchVarConfig wl_cfg;
  wl_cfg.iterations = 24;
  wl_cfg.k = 8;
  for (auto& l : wl_cfg.loads_a) l /= 8.0;
  for (auto& l : wl_cfg.loads_b) l /= 8.0;

  analysis::ExperimentConfig base_cfg;
  base_cfg.mode = analysis::SchedMode::kBaselineCfs;
  base_cfg.seed = 3;
  const auto base = analysis::run_experiment(base_cfg, wl::make_metbenchvar(wl_cfg));
  std::printf("baseline: %.2fs\n\n", base.exec_time.sec());

  std::printf("%-8s %-10s %-12s %-14s %-10s\n", "G(%)", "exec(s)", "improve(%)", "prio changes",
              "resets");
  for (const int g : {0, 10, 25, 50, 75, 90, 100}) {
    analysis::ExperimentConfig cfg;
    cfg.mode = analysis::SchedMode::kAdaptive;
    cfg.seed = 3;
    cfg.hpc.adaptive_g_pct = g;
    const auto r = analysis::run_experiment(cfg, wl::make_metbenchvar(wl_cfg));
    std::printf("%-8d %-10.2f %-+12.2f %-14lld %-10lld\n", g, r.exec_time.sec(),
                analysis::improvement_pct(base, r),
                static_cast<long long>(r.hw_prio_changes),
                static_cast<long long>(r.hpc_history_resets));
  }

  std::printf(
      "\nsmall G = aggressive (fast adaptation, more over-reaction under noise);\n"
      "large G = conservative (Uniform-like: stable but slower after behaviour\n"
      "changes). The paper's aggressive setting is G=10 (L=0.90).\n");
  return 0;
}
