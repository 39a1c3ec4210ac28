// Reproduces Figure 2: the iterative behaviour the scheduler keys on — each
// task alternates a computing phase t_R and a waiting phase t_W; one
// iteration is t_i = t_R + t_W and the utilization is U_i = t_R / t_i.
// Prints the actual per-iteration anatomy the HPC scheduler measured for an
// imbalanced MetBench pair, plus the derived global utilization series.

#include <cstdio>

#include "analysis/paper_experiments.h"
#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kObs);
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 6;
  std::vector<analysis::RunResult> results;
  results.push_back(analysis::run_metbench(e, analysis::SchedMode::kUniform, /*trace=*/true,
                                           /*seed=*/1, flags.obs.cfg));
  const analysis::RunResult& r = results[0];

  std::printf("=== Figure 2: HPC application iterative behaviour ===\n\n");
  std::printf("one iteration = computing phase (t_R) + waiting phase (t_W);\n");
  std::printf("U_i = t_R/t_i, accounted when the task wakes up (paper, section IV-B)\n\n");

  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    std::printf("%s (%s):\n", r.ranks[i].name.c_str(),
                i % 2 == 0 ? "light worker" : "heavy worker");
    for (const auto& ev : r.tracer->iteration_events(r.ranks[i].pid)) {
      std::printf("  iteration %d closed at t=%7.3fs  U_i=%6.2f%%  metric=%6.2f%%\n",
                  ev.iteration, ev.when.sec(), ev.util_last, ev.util_metric);
    }
  }
  std::printf(
      "\nthe imbalance is visible in iteration 1 (light ~25%%, heavy ~100%%); the\n"
      "heuristic applies priorities before iteration 2 and both settle near 100%%.\n");
  const bool written =
      bench::write_obs_outputs("fig2_iteration_anatomy", flags.obs, {"Uniform"}, results);
  return written ? 0 : 1;
}
