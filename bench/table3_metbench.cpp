// Reproduces Table III: MetBench balanced and imbalanced characterization —
// Baseline (stock CFS), Static hand-tuned priorities [5], and HPCSched with
// the Uniform and Adaptive heuristics.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  using analysis::SchedMode;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  const auto e = analysis::MetBenchExperiment::paper();
  const std::vector<SchedMode> modes = {SchedMode::kBaselineCfs, SchedMode::kStatic,
                                        SchedMode::kUniform, SchedMode::kAdaptive};

  std::printf("=== Table III: MetBench characterization ===\n\n");
  auto results = bench::run_modes(
      flags.jobs, modes,
      [&e, &flags](SchedMode m) {
        return analysis::run_metbench(e, m, /*trace=*/false, /*seed=*/1, flags.obs.cfg);
      });
  auto& baseline = results[0];
  auto& stat = results[1];
  auto& uniform = results[2];
  auto& adaptive = results[3];

  bench::print_paper_comparison(modes, results, analysis::paper_reference_metbench);

  std::printf("\npriority changes: uniform=%lld adaptive=%lld\n",
              static_cast<long long>(uniform.hw_prio_changes),
              static_cast<long long>(adaptive.hw_prio_changes));

  // The paper-format table, all four sections.
  std::vector<analysis::TableSection> sections = {
      {"Baseline", &baseline, {4, 4, 4, 4}},
      {"Static", &stat, e.static_prios},
      {"Uniform", &uniform, {}},
      {"Adaptive", &adaptive, {}},
  };
  std::printf("\n%s\n",
              analysis::render_characterization_table("Table III (measured)", sections).c_str());
  const bool written = bench::write_obs_outputs("table3_metbench", flags.obs,
                                                bench::mode_names(modes), results);
  return written ? 0 : 1;
}
