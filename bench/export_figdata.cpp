// Exports the machine-readable data behind every figure: per-iteration
// utilization CSVs, state-interval CSVs, priority timelines and real
// Paraver .prv/.pcf/.row trace sets for the four workloads — into
// ./bench_data/. This is how a downstream user regenerates the paper's
// plots with their own tooling (or opens the traces in wxparaver). Exits 1,
// after the last export and the obs outputs, if any file could not be
// written in full.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <utility>

#include "analysis/paper_experiments.h"
#include "fig_common.h"
#include "obs/text_file.h"
#include "trace/csv.h"
#include "trace/paraver.h"

using namespace hpcs;
using analysis::SchedMode;

namespace {

using CsvWriter = void (*)(std::ostream&, const trace::Tracer&, const std::vector<Pid>&,
                           const std::vector<std::string>&);

/// Writes one export's three CSVs and Paraver set; false if any file came
/// up short.
bool export_run(const std::string& dir, const std::string& name,
                const analysis::RunResult& r) {
  std::vector<Pid> pids;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    pids.push_back(r.ranks[i].pid);
    labels.push_back("P" + std::to_string(i + 1));
  }
  const std::string base = dir + "/" + name;
  const std::pair<const char*, CsvWriter> csvs[] = {
      {"_iterations.csv", trace::write_iterations_csv},
      {"_intervals.csv", trace::write_intervals_csv},
      {"_priorities.csv", trace::write_priorities_csv},
  };
  bool ok = true;
  for (const auto& [suffix, write] : csvs) {
    std::ostringstream os;
    write(os, *r.tracer, pids, labels);
    ok = obs::write_text_file(base + suffix, os.str()) && ok;
  }
  trace::ParaverJob job;
  job.pids = pids;
  job.labels = labels;
  ok = trace::export_paraver(base, *r.tracer, job) && ok;
  std::printf("  %s: exec %.2fs -> %s/%s_*.csv + .prv/.pcf/.row\n", name.c_str(),
              r.exec_time.sec(), dir.c_str(), name.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags(argc, argv, bench::kJobs | bench::kObs);
  const std::string dir = "bench_data";
  // A directory that cannot be made shows up as files that cannot be
  // written: each warns, and the driver exits 1 after the last export.
  std::error_code unused;
  std::filesystem::create_directories(dir, unused);
  std::printf("=== exporting figure data to ./%s ===\n", dir.c_str());

  // The five exports are independent runs: fan them across the parallel
  // engine (--jobs N) as index-dispatched closures, then write
  // the files in the fixed export order so every byte matches the serial
  // path. With --obs-trace the same runs additionally land in one
  // Chrome-trace / Perfetto file (each export as its own "process").
  auto metbench = analysis::MetBenchExperiment::paper();
  metbench.workload.iterations = 12;
  const auto metbenchvar = analysis::MetBenchVarExperiment::paper();
  auto btmz = analysis::BtMzExperiment::paper();
  btmz.workload.iterations = 60;
  auto siesta = analysis::SiestaExperiment::paper();
  siesta.workload.microiters = 8000;
  const obs::ObsConfig& cfg = flags.obs.cfg;

  struct Export {
    const char* name;
    std::function<analysis::RunResult()> run;
  };
  const std::vector<Export> exports = {
      {"fig3a_metbench_baseline",
       [&] { return analysis::run_metbench(metbench, SchedMode::kBaselineCfs, true, 1, cfg); }},
      {"fig3c_metbench_uniform",
       [&] { return analysis::run_metbench(metbench, SchedMode::kUniform, true, 1, cfg); }},
      {"fig4c_metbenchvar_uniform",
       [&] { return analysis::run_metbenchvar(metbenchvar, SchedMode::kUniform, true, 1, cfg); }},
      {"fig5c_btmz_uniform",
       [&] { return analysis::run_btmz(btmz, SchedMode::kUniform, true, 1, cfg); }},
      {"fig6b_siesta_uniform",
       [&] { return analysis::run_siesta(siesta, SchedMode::kUniform, true, 1, cfg); }},
  };

  exp::ParallelRunner runner(flags.jobs);
  auto results = runner.map(exports.size(), [&](std::size_t i) { return exports[i].run(); });
  std::vector<std::string> labels;
  bool ok = true;
  for (std::size_t i = 0; i < exports.size(); ++i) {
    ok = export_run(dir, exports[i].name, results[i]) && ok;
    labels.emplace_back(exports[i].name);
  }
  ok = bench::write_obs_outputs("export_figdata", flags.obs, labels, results) && ok;
  std::printf("done.\n");
  return ok ? 0 : 1;
}
