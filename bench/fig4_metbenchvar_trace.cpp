// Reproduces Figure 4: MetBenchVar traces — the load imbalance reverses at
// iterations 15 and 30. Static prioritization is correct in periods 1 and 3
// but *backwards* in period 2; the dynamic scheduler re-balances within a
// few iterations of each switch (Uniform needs a couple more as its global
// history ages; Adaptive always ~2).
//
// The four runs fan across the parallel experiment engine (--jobs N);
// printing happens after collection, in figure order, so the output is
// byte-identical to the serial loop this replaces.

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  using analysis::SchedMode;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  const auto e = analysis::MetBenchVarExperiment::paper();

  const bench::FigureList figures = {
      {SchedMode::kBaselineCfs, "(a) standard execution"},
      {SchedMode::kStatic, "(b) static prioritization"},
      {SchedMode::kUniform, "(c) Uniform prioritization"},
      {SchedMode::kAdaptive, "(d) Adaptive prioritization"}};
  std::vector<SchedMode> modes;
  for (const auto& [mode, label] : figures) modes.push_back(mode);

  std::printf("=== Figure 4: effect of the proposed solution on MetBenchVar ===\n\n");
  auto results = bench::run_modes(
      flags.jobs, modes,
      [&e, &flags](SchedMode m) {
        return analysis::run_metbenchvar(e, m, /*trace=*/true, /*seed=*/1, flags.obs.cfg);
      });
  for (std::size_t i = 0; i < figures.size(); ++i) {
    bench::print_trace_figure(figures[i].second, results[i], 135);
    if (analysis::is_dynamic_mode(figures[i].first)) {
      bench::print_iteration_series(results[i]);
      std::printf("history resets (behaviour changes detected): %lld\n",
                  static_cast<long long>(results[i].hpc_history_resets));
    }
    std::printf("\n");
  }
  const bool written = bench::write_obs_outputs("fig4_metbenchvar", flags.obs,
                                                bench::subtitles(figures), results);
  return written ? 0 : 1;
}
