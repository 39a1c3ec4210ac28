// Reproduces Figure 6: SIESTA traces — fine-grained execution phases and
// heavy messaging; the figure shows (a) standard execution, (b) Uniform and
// (c) Adaptive. The paper's point: phases are so small and irregular that
// iteration-based balancing barely changes utilizations; the win is the
// responsive scheduling policy.
//
// The three runs fan across the parallel experiment engine (--jobs N);
// printing happens after collection, in figure order, so the output is
// byte-identical to the serial loop this replaces.

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  using analysis::SchedMode;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  auto e = analysis::SiestaExperiment::paper();
  e.workload.microiters = 8000;  // a window of the full run
  e.workload.mark_every = 100;

  const bench::FigureList figures = {
      {SchedMode::kBaselineCfs, "(a) standard execution"},
      {SchedMode::kUniform, "(b) Uniform prioritization"},
      {SchedMode::kAdaptive, "(c) Adaptive prioritization"}};
  std::vector<SchedMode> modes;
  for (const auto& [mode, label] : figures) modes.push_back(mode);

  std::printf("=== Figure 6: effect of the proposed solution on SIESTA ===\n\n");
  auto results = bench::run_modes(
      flags.jobs, modes,
      [&e, &flags](SchedMode m) {
        return analysis::run_siesta(e, m, /*trace=*/true, /*seed=*/1, flags.obs.cfg);
      });
  for (std::size_t i = 0; i < figures.size(); ++i) {
    bench::print_trace_figure(figures[i].second, results[i], 120);
    std::printf("avg wakeup latency per rank (us):");
    for (const auto& rank : results[i].ranks) std::printf(" %.1f", rank.avg_wakeup_latency_us);
    std::printf("\n\n");
  }
  const bool written = bench::write_obs_outputs("fig6_siesta", flags.obs,
                                                bench::subtitles(figures), results);
  return written ? 0 : 1;
}
