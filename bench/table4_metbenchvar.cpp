// Reproduces Table IV: MetBenchVar — the dynamic workload whose imbalance
// reverses every k=15 iterations. The static prioritization (tuned for the
// first period) backfires in the reversed period; HPCSched re-balances
// within a few iterations after every switch.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  using analysis::SchedMode;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  const auto e = analysis::MetBenchVarExperiment::paper();
  const std::vector<SchedMode> modes = {SchedMode::kBaselineCfs, SchedMode::kStatic,
                                        SchedMode::kUniform, SchedMode::kAdaptive};

  std::printf("=== Table IV: MetBenchVar characterization (k=15, 45 iterations) ===\n\n");
  auto results = bench::run_modes(
      flags.jobs, modes,
      [&e, &flags](SchedMode m) {
        return analysis::run_metbenchvar(e, m, /*trace=*/false, /*seed=*/1, flags.obs.cfg);
      });
  auto& baseline = results[0];
  auto& stat = results[1];
  auto& uniform = results[2];
  auto& adaptive = results[3];

  bench::print_paper_comparison(modes, results, analysis::paper_reference_metbenchvar);

  std::printf("\nbehaviour-change history resets: uniform=%lld adaptive=%lld\n",
              static_cast<long long>(uniform.hpc_history_resets),
              static_cast<long long>(adaptive.hpc_history_resets));

  std::vector<analysis::TableSection> sections = {
      {"Baseline", &baseline, {4, 4, 4, 4}},
      {"Static", &stat, e.static_prios},
      {"Uniform", &uniform, {}},
      {"Adaptive", &adaptive, {}},
  };
  std::printf("\n%s\n",
              analysis::render_characterization_table("Table IV (measured)", sections).c_str());
  const bool written = bench::write_obs_outputs("table4_metbenchvar", flags.obs,
                                                bench::mode_names(modes), results);
  return written ? 0 : 1;
}
