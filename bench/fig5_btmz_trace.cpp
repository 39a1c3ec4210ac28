// Reproduces Figure 5: BT-MZ traces (a window of the 200-iteration run, as
// in the paper: "each trace represents only some iterations").
//
// The four runs fan across the parallel experiment engine (--jobs N);
// printing happens after collection, in figure order, so the output is
// byte-identical to the serial loop this replaces.

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  using analysis::SchedMode;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  auto e = analysis::BtMzExperiment::paper();
  e.workload.iterations = 60;  // a representative window

  const bench::FigureList figures = {
      {SchedMode::kBaselineCfs, "(a) baseline execution"},
      {SchedMode::kStatic, "(b) static prioritization"},
      {SchedMode::kUniform, "(c) Uniform prioritization"},
      {SchedMode::kAdaptive, "(d) Adaptive prioritization"}};
  std::vector<SchedMode> modes;
  for (const auto& [mode, label] : figures) modes.push_back(mode);

  std::printf("=== Figure 5: effect of the proposed solution on BT-MZ ===\n\n");
  auto results = bench::run_modes(
      flags.jobs, modes,
      [&e, &flags](SchedMode m) {
        return analysis::run_btmz(e, m, /*trace=*/true, /*seed=*/1, flags.obs.cfg);
      });
  for (std::size_t i = 0; i < figures.size(); ++i) {
    bench::print_trace_figure(figures[i].second, results[i], 120);
    std::printf("\n");
  }
  const bool written = bench::write_obs_outputs("fig5_btmz", flags.obs,
                                                bench::subtitles(figures), results);
  return written ? 0 : 1;
}
