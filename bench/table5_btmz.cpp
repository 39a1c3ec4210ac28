// Reproduces Table V: NAS BT-MZ (class A shape, 200 iterations) — uneven
// zone loads with neighbour isend/irecv/waitall exchange. Both heuristics
// should match the hand-tuned static assignment (4/4/5/6).

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hpcs;
  using analysis::SchedMode;

  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  const auto e = analysis::BtMzExperiment::paper();
  const std::vector<SchedMode> modes = {SchedMode::kBaselineCfs, SchedMode::kStatic,
                                        SchedMode::kUniform, SchedMode::kAdaptive};

  std::printf("=== Table V: BT-MZ characterization (class A, 200 iterations) ===\n\n");
  auto results = bench::run_modes(
      flags.jobs, modes,
      [&e, &flags](SchedMode m) {
        return analysis::run_btmz(e, m, /*trace=*/false, /*seed=*/1, flags.obs.cfg);
      });
  auto& baseline = results[0];
  auto& stat = results[1];
  auto& uniform = results[2];
  auto& adaptive = results[3];

  bench::print_paper_comparison(modes, results, analysis::paper_reference_btmz);

  std::printf("\nfinal dynamic priorities (uniform): ");
  for (const auto& r : uniform.ranks) std::printf("%d ", r.final_hw_prio);
  std::printf(" (paper's hand-tuned static:");
  for (const int p : e.static_prios) std::printf(" %d", p);
  std::printf(")\n");

  std::vector<analysis::TableSection> sections = {
      {"Baseline", &baseline, {4, 4, 4, 4}},
      {"Static", &stat, e.static_prios},
      {"Uniform", &uniform, {}},
      {"Adaptive", &adaptive, {}},
  };
  std::printf("\n%s\n",
              analysis::render_characterization_table("Table V (measured)", sections).c_str());
  const bool written = bench::write_obs_outputs("table5_btmz", flags.obs,
                                                bench::mode_names(modes), results);
  return written ? 0 : 1;
}
