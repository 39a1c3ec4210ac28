// Ablation: heuristic design choices (paper §IV-B / §VI).
//  1. Adaptive G/L weight sweep on MetBenchVar: aggressive settings adapt
//     fast but over-react to noise; conservative ones degenerate to Uniform.
//  2. LOW/HIGH utilization boundary sweep on MetBench.
//  3. The Hybrid (future work) heuristic vs Uniform and Adaptive on both a
//     constant and a dynamic application.
//
// Every run is independent, so the whole ablation fans across the parallel
// experiment engine (--jobs N); results come back in batch order and are
// printed in the original order afterwards.

#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "analysis/paper_experiments.h"
#include "bench_common.h"
#include "exp/parallel_runner.h"

using namespace hpcs;
using analysis::SchedMode;

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_flags(argc, argv, bench::kJobs).jobs;

  auto var = analysis::MetBenchVarExperiment::paper();
  // Quarter-scale loads for speed; dynamics are unchanged.
  for (auto& l : var.workload.loads_a) l /= 4.0;
  for (auto& l : var.workload.loads_b) l /= 4.0;
  auto mb = analysis::MetBenchExperiment::paper();
  mb.workload.iterations = 20;

  const std::vector<int> g_values = {0, 10, 30, 50, 70, 90, 100};
  const std::vector<std::pair<int, int>> bounds = {{50, 95}, {65, 85}, {40, 60}, {20, 95}, {80, 90}};

  // Batch layout: the two baselines, the G sweep, the bounds sweep, then
  // Uniform/Adaptive/Hybrid on MetBench and on MetBenchVar.
  const std::size_t g0 = 2;
  const std::size_t b0 = g0 + g_values.size();
  const std::size_t h0 = b0 + bounds.size();
  constexpr SchedMode kDynamic[] = {SchedMode::kUniform, SchedMode::kAdaptive,
                                    SchedMode::kHybrid};
  exp::ParallelRunner runner(jobs);
  const std::vector<analysis::RunResult> runs = runner.map(h0 + 6, [&](std::size_t i) {
    if (i == 0) return analysis::run_metbenchvar(var, SchedMode::kBaselineCfs);
    if (i == 1) return analysis::run_metbench(mb, SchedMode::kBaselineCfs);
    if (i < b0) {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kAdaptive, 1, false);
      cfg.hpc.adaptive_g_pct = g_values[i - g0];
      return analysis::run_experiment(cfg, wl::make_metbenchvar(var.workload));
    }
    if (i < h0) {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kUniform, 1, false);
      cfg.hpc.low_util = bounds[i - b0].first;
      cfg.hpc.high_util = bounds[i - b0].second;
      return analysis::run_experiment(cfg, wl::make_metbench(mb.workload));
    }
    const SchedMode mode = kDynamic[(i - h0) % 3];
    return i - h0 < 3 ? analysis::run_metbench(mb, mode) : analysis::run_metbenchvar(var, mode);
  });
  const analysis::RunResult& var_base = runs[0];
  const analysis::RunResult& mb_base = runs[1];
  const auto g_runs = std::span(runs).subspan(g0, g_values.size());
  const auto bound_runs = std::span(runs).subspan(b0, bounds.size());
  const analysis::RunResult& mb_u = runs[h0];
  const analysis::RunResult& mb_a = runs[h0 + 1];
  const analysis::RunResult& mb_h = runs[h0 + 2];
  const analysis::RunResult& var_u = runs[h0 + 3];
  const analysis::RunResult& var_a = runs[h0 + 4];
  const analysis::RunResult& var_h = runs[h0 + 5];

  // --- 1. Adaptive G weight sweep -----------------------------------------
  std::printf("=== Ablation 1: Adaptive G (history weight) on MetBenchVar ===\n");
  std::printf("%-8s %-12s %-12s %-10s\n", "G (%)", "exec (s)", "improve (%)", "prio chgs");
  for (std::size_t i = 0; i < g_values.size(); ++i) {
    std::printf("%-8d %-12.2f %-+12.2f %-10lld\n", g_values[i], g_runs[i].exec_time.sec(),
                analysis::improvement_pct(var_base, g_runs[i]),
                static_cast<long long>(g_runs[i].hw_prio_changes));
  }

  // --- 2. Utilization boundary sweep ---------------------------------------
  std::printf("\n=== Ablation 2: LOW/HIGH utilization bounds on MetBench ===\n");
  std::printf("%-12s %-12s %-12s %-10s\n", "low/high", "exec (s)", "improve (%)", "prio chgs");
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    std::printf("%3d/%-8d %-12.2f %-+12.2f %-10lld\n", bounds[i].first, bounds[i].second,
                bound_runs[i].exec_time.sec(), analysis::improvement_pct(mb_base, bound_runs[i]),
                static_cast<long long>(bound_runs[i].hw_prio_changes));
  }

  // --- 3. Hybrid heuristic (paper future work) ------------------------------
  std::printf("\n=== Ablation 3: Hybrid vs Uniform vs Adaptive ===\n");
  std::printf("%-22s %-10s %-10s %-10s\n", "workload", "uniform", "adaptive", "hybrid");
  std::printf("%-22s %-+10.2f %-+10.2f %-+10.2f\n", "MetBench (constant)",
              analysis::improvement_pct(mb_base, mb_u), analysis::improvement_pct(mb_base, mb_a),
              analysis::improvement_pct(mb_base, mb_h));
  std::printf("%-22s %-+10.2f %-+10.2f %-+10.2f\n", "MetBenchVar (dynamic)",
              analysis::improvement_pct(var_base, var_u), analysis::improvement_pct(var_base, var_a),
              analysis::improvement_pct(var_base, var_h));
  std::printf("\n(the paper's future-work goal: one heuristic performing well on both)\n");
  return 0;
}
