// Reproduces Table VI: SIESTA (benzene-like irregular workload). The paper's
// point: the heuristics only reduce the imbalance marginally, yet HPCSched
// still improves the execution time ~6% — the gain comes from the scheduling
// policy (low wakeup latency, HPC class priority over OS noise), not from
// balancing. We report the latency split explicitly.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  using analysis::SchedMode;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  const auto e = analysis::SiestaExperiment::paper();
  const std::vector<SchedMode> modes = {SchedMode::kBaselineCfs, SchedMode::kUniform,
                                        SchedMode::kAdaptive};

  std::printf("=== Table VI: SIESTA characterization ===\n\n");
  auto results = bench::run_modes(
      flags.jobs, modes,
      [&e, &flags](SchedMode m) {
        return analysis::run_siesta(e, m, /*trace=*/false, /*seed=*/1, flags.obs.cfg);
      });
  auto& baseline = results[0];
  auto& uniform = results[1];
  auto& adaptive = results[2];

  bench::print_paper_comparison(modes, results, analysis::paper_reference_siesta);

  std::printf(
      "\nscheduler latency (avg wakeup->dispatch): baseline %.1fus, uniform %.1fus, "
      "adaptive %.1fus\n",
      baseline.avg_wakeup_latency_us, uniform.avg_wakeup_latency_us,
      adaptive.avg_wakeup_latency_us);
  std::printf("wakeups: baseline %lld messages %lld\n",
              static_cast<long long>(baseline.ranks[0].wakeups +
                                     baseline.ranks[1].wakeups +
                                     baseline.ranks[2].wakeups + baseline.ranks[3].wakeups),
              static_cast<long long>(baseline.messages));

  std::vector<analysis::TableSection> sections = {
      {"Baseline", &baseline, {4, 4, 4, 4}},
      {"Uniform", &uniform, {}},
      {"Adaptive", &adaptive, {}},
  };
  std::printf("\n%s\n",
              analysis::render_characterization_table("Table VI (measured)", sections).c_str());
  const bool written = bench::write_obs_outputs("table6_siesta", flags.obs,
                                                bench::mode_names(modes), results);
  return written ? 0 : 1;
}
