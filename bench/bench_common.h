#pragma once
// Shared helpers for the bench drivers: parse the flags a driver takes,
// print each experiment in the paper's table layout next to the paper's own
// numbers, summarize the headline improvements, and fan the per-mode runs
// across the parallel experiment engine (--jobs N; results are committed in
// mode order, so output is bit-identical to the serial drivers). The obs
// epilogue here serves every table, figure and export driver.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/paper_experiments.h"
#include "analysis/tables.h"
#include "exp/parallel_runner.h"
#include "obs/chrome_trace.h"
#include "obs/manifest.h"

namespace hpcs::bench {

/// What the obs flags asked for. Off by default so the golden numbers are
/// unaffected.
struct ObsOptions {
  obs::ObsConfig cfg;
  std::string trace_path;
};

/// The flags a driver takes, as a mask for parse_flags.
inline constexpr unsigned kJobs = 1;
inline constexpr unsigned kObs = 2;

struct Flags {
  unsigned jobs = exp::default_jobs();
  ObsOptions obs;
};

/// Parse argv for the flags in `takes`, each value given as `FLAG VALUE` or
/// `FLAG=VALUE`:
///   kJobs  --jobs N          run the batch on N workers (default: every
///                            hardware thread)
///   kObs   --obs             per-run metrics (tracepoint hit counts and the
///                            kernel's counters), MANIFEST_<name>.json
///          --obs-trace PATH  additionally capture a Chrome-trace / Perfetto
///                            JSON view of every run into PATH (implies --obs)
///          --obs-window NS   sample every live count on sim-time window
///                            boundaries of NS nanoseconds into the
///                            manifest's per-window series (schema
///                            hpcs-obs-manifest-v2; implies --obs). The series
///                            is byte-identical serial vs --jobs N, so
///                            scripts/manifest_diff.py can flag mid-run
///                            anomalies that identical totals hide.
/// A missing or invalid value, and any argument that is not a flag in
/// `takes`, aborts with exit code 2 and one `error:` line.
inline Flags parse_flags(int argc, char** argv, unsigned takes) {
  Flags f;
  const auto fail = [](const char* what, const std::string& why) {
    std::fprintf(stderr, "error: %s: %s\n", what, why.c_str());
    std::exit(2);
  };
  // The value of `flag` when argv[i] is `flag VALUE` or `flag=VALUE`, else
  // nullptr. An empty value, or one that starts with `--` (the next flag),
  // is missing and aborts like a bad one.
  const auto value_of = [&](int& i, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    const char* v = nullptr;
    if (std::strcmp(argv[i], flag) == 0) {
      v = i + 1 < argc ? argv[++i] : "";
    } else if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=') {
      v = argv[i] + n + 1;
    } else {
      return nullptr;
    }
    if (v[0] == '\0' || std::strncmp(v, "--", 2) == 0) fail(flag, "missing value");
    return v;
  };
  const bool take_jobs = (takes & kJobs) != 0;
  const bool take_obs = (takes & kObs) != 0;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    if (const char* n = take_jobs ? value_of(i, "--jobs") : nullptr) {
      if (!exp::parse_jobs(n, f.jobs, error)) fail("--jobs", error);
    } else if (take_obs && std::strcmp(argv[i], "--obs") == 0) {
      f.obs.cfg.enabled = true;
    } else if (const char* path = take_obs ? value_of(i, "--obs-trace") : nullptr) {
      f.obs.trace_path = path;
    } else if (const char* ns = take_obs ? value_of(i, "--obs-window") : nullptr) {
      if (!obs::parse_window_ns(ns, f.obs.cfg.window_ns, error)) fail("--obs-window", error);
    } else {
      fail(argv[i], "unknown flag");
    }
  }
  if (!f.obs.trace_path.empty()) {
    f.obs.cfg.enabled = true;
    f.obs.cfg.chrome_trace = true;
  }
  if (f.obs.cfg.window_ns > 0) f.obs.cfg.enabled = true;
  return f;
}

/// Run one experiment per mode through the parallel engine; results come
/// back in mode order regardless of worker interleaving.
template <typename RunFn>
std::vector<analysis::RunResult> run_modes(unsigned jobs,
                                           const std::vector<analysis::SchedMode>& modes,
                                           RunFn run) {
  exp::ParallelRunner runner(jobs);
  return runner.map(modes.size(), [&](std::size_t i) { return run(modes[i]); });
}

/// The runs' labels in a table driver's manifest and trace: the mode names.
inline std::vector<std::string> mode_names(const std::vector<analysis::SchedMode>& modes) {
  std::vector<std::string> names;
  for (const analysis::SchedMode m : modes) names.emplace_back(analysis::sched_mode_name(m));
  return names;
}

/// The obs epilogue of every table, figure and export driver, one run per
/// label: MANIFEST_<name>.json (one entry per run, fixed metric order — see
/// docs/observability.md; byte-identical for every --jobs N) and the Chrome
/// trace (--obs-trace). Returns false, after the file's warning, when a
/// file it was asked for could not be written in full; the driver then
/// exits 1. No-op with obs off.
[[nodiscard]] inline bool write_obs_outputs(const char* name, const ObsOptions& o,
                                            const std::vector<std::string>& labels,
                                            const std::vector<analysis::RunResult>& results) {
  if (!o.cfg.enabled) return true;
  std::vector<obs::ManifestRun> runs;
  for (std::size_t i = 0; i < labels.size(); ++i) runs.push_back({labels[i], results[i].metrics});
  bool ok = obs::write_manifest_json(std::string("MANIFEST_") + name + ".json", name, runs);
  if (!o.trace_path.empty()) {
    std::vector<obs::ChromeTraceRun> truns;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (results[i].chrome) {
        truns.push_back({labels[i], results[i].chrome.get(), &results[i].metrics});
      }
    }
    if (obs::write_chrome_trace(o.trace_path, truns)) {
      std::printf("wrote Chrome trace: %s (open in ui.perfetto.dev)\n", o.trace_path.c_str());
    } else {
      ok = false;
    }
  }
  return ok;
}

inline void print_side_by_side(const analysis::RunResult& ours,
                               const analysis::PaperReference& paper) {
  std::printf("%-18s | %-28s | %-28s\n", paper.label, "measured (this repro)", "paper (POWER5)");
  for (std::size_t i = 0; i < ours.ranks.size(); ++i) {
    const double paper_util = i < paper.util_pct.size() ? paper.util_pct[i] : 0.0;
    std::printf("  P%-15zu | util %6.2f%%                | util %6.2f%%\n", i + 1,
                ours.ranks[i].util_pct, paper_util);
  }
  std::printf("  %-16s | %10.2fs                 | %10.2fs\n", "exec time",
              ours.exec_time.sec(), paper.exec_time_s);
}

/// A table driver's measured-vs-paper block: every mode side by side with
/// the paper's numbers (`paper_ref`, one of analysis::paper_reference_*),
/// then each later mode's improvement over the first, the baseline, measured
/// and published.
inline void print_paper_comparison(const std::vector<analysis::SchedMode>& modes,
                                   const std::vector<analysis::RunResult>& results,
                                   analysis::PaperReference (*paper_ref)(analysis::SchedMode)) {
  for (std::size_t i = 0; i < modes.size(); ++i) {
    print_side_by_side(results[i], paper_ref(modes[i]));
    std::printf("\n");
  }
  const double paper_baseline_s = paper_ref(modes[0]).exec_time_s;
  for (std::size_t i = 1; i < modes.size(); ++i) {
    const analysis::PaperReference paper = paper_ref(modes[i]);
    const std::string what = std::string(paper.label) + " vs baseline";
    const double ours = analysis::improvement_pct(results[0], results[i]);
    const double theirs =
        paper_baseline_s > 0 ? 100.0 * (1.0 - paper.exec_time_s / paper_baseline_s) : 0.0;
    std::printf("%-26s improvement: measured %+6.2f%%   paper %+6.2f%%\n", what.c_str(), ours,
                theirs);
  }
}

}  // namespace hpcs::bench
