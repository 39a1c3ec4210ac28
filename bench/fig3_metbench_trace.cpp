// Reproduces Figure 3: MetBench execution traces under (a) the standard
// scheduler, (b) static prioritization, (c) Uniform and (d) Adaptive
// HPCSched. '#' = computing, '.' = waiting; the digit row shows hardware
// priorities while they differ from the default 4.
//
// The four runs fan across the parallel experiment engine (--jobs N);
// printing happens after collection, in figure order, so the output is
// byte-identical to the serial loop this replaces.

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  using analysis::SchedMode;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 12;  // enough iterations to see the pattern clearly

  const bench::FigureList figures = {
      {SchedMode::kBaselineCfs, "(a) standard execution"},
      {SchedMode::kStatic, "(b) static prioritization"},
      {SchedMode::kUniform, "(c) Uniform prioritization"},
      {SchedMode::kAdaptive, "(d) Adaptive prioritization"}};
  std::vector<SchedMode> modes;
  for (const auto& [mode, label] : figures) modes.push_back(mode);

  std::printf("=== Figure 3: effect of the proposed solution on MetBench ===\n\n");
  auto results = bench::run_modes(
      flags.jobs, modes,
      [&e, &flags](SchedMode m) {
        return analysis::run_metbench(e, m, /*trace=*/true, /*seed=*/1, flags.obs.cfg);
      });
  for (std::size_t i = 0; i < figures.size(); ++i) {
    bench::print_trace_figure(figures[i].second, results[i]);
    if (analysis::is_dynamic_mode(figures[i].first)) bench::print_iteration_series(results[i]);
    std::printf("\n");
  }
  const bool written = bench::write_obs_outputs("fig3_metbench", flags.obs,
                                                bench::subtitles(figures), results);
  return written ? 0 : 1;
}
