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

using FigureList = std::vector<std::pair<analysis::SchedMode, const char*>>;

/// The runs' labels in a figure driver's manifest and trace: the subtitles.
inline std::vector<std::string> subtitles(const FigureList& figures) {
  std::vector<std::string> labels;
  for (const auto& [mode, subtitle] : figures) labels.emplace_back(subtitle);
  return labels;
}

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
