#pragma once
// Shared rendering for the figure benches: each paper figure is a set of
// PARAVER traces (one per scheduler configuration); we regenerate them as
// ASCII Gantt charts plus a per-iteration utilization series — the exact
// data the paper's figures visualize.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/paper_experiments.h"
#include "bench_common.h"
#include "trace/gantt.h"

namespace hpcs::bench {

/// Obs accumulation for the figure drivers: they run their modes serially
/// and label the runs with figure subtitles, so collect (label, result)
/// pairs and emit the manifest + Chrome trace once at the end. Results are
/// kept alive here because the Chrome sinks live inside them. No host
/// sidecar: figure drivers do not go through the parallel engine.
class FigObs {
 public:
  FigObs(const char* name, ObsOptions opt) : name_(name), opt_(std::move(opt)) {}

  [[nodiscard]] const obs::ObsConfig& cfg() const { return opt_.cfg; }

  /// Take ownership of a finished run. No-op (result dropped) with obs off.
  void keep(const std::string& label, analysis::RunResult r) {
    if (!opt_.cfg.enabled) return;
    labels_.push_back(label);
    results_.push_back(std::move(r));
  }

  /// Write MANIFEST_<name>.json (+ the Chrome trace when requested).
  void finish() {
    if (!opt_.cfg.enabled) return;
    std::vector<obs::ManifestRun> runs;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      runs.push_back({labels_[i], results_[i].metrics});
    }
    obs::write_manifest_json("MANIFEST_" + name_ + ".json", name_, runs);
    if (!opt_.trace_path.empty()) {
      std::vector<obs::ChromeTraceRun> truns;
      for (std::size_t i = 0; i < results_.size(); ++i) {
        if (results_[i].chrome) {
          truns.push_back({labels_[i], results_[i].chrome.get(), &results_[i].metrics});
        }
      }
      if (obs::write_chrome_trace(opt_.trace_path, truns)) {
        std::printf("wrote Chrome trace: %s (open in ui.perfetto.dev)\n",
                    opt_.trace_path.c_str());
      }
    }
  }

 private:
  std::string name_;
  ObsOptions opt_;
  std::vector<std::string> labels_;
  std::vector<analysis::RunResult> results_;
};

inline void print_trace_figure(const char* subtitle, const analysis::RunResult& r,
                               int width = 110) {
  std::printf("--- %s (exec %.2fs) ---\n", subtitle, r.exec_time.sec());
  std::vector<Pid> pids;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    pids.push_back(r.ranks[i].pid);
    labels.push_back("P" + std::to_string(i + 1));
  }
  trace::GanttOptions opt;
  opt.width = width;
  std::printf("%s\n", trace::render_gantt(*r.tracer, pids, labels, opt).c_str());
}

/// Per-iteration utilization series of every rank (the data of Fig. 3-6),
/// printed as compact rows. `stride` subsamples long series.
inline void print_iteration_series(const analysis::RunResult& r, int stride = 1) {
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    const auto& evs = r.tracer->iteration_events(r.ranks[i].pid);
    std::printf("P%zu util/iter:", i + 1);
    int printed = 0;
    for (std::size_t k = 0; k < evs.size(); k += static_cast<std::size_t>(stride)) {
      if (printed++ > 40) {
        std::printf(" ...");
        break;
      }
      std::printf(" %3.0f", evs[k].util_last);
    }
    std::printf("\n");
  }
}

}  // namespace hpcs::bench
