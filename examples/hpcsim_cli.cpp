// hpcsim command-line driver: run any packaged workload under any scheduler
// configuration and inspect the result — tables, ASCII Gantt, PARAVER
// export. The "swiss-army knife" entry point of the library.
//
// Usage:
//   example_hpcsim_cli [--workload metbench|metbenchvar|btmz|siesta]
//                      [--mode baseline|static|uniform|adaptive|hybrid]
//                      [--iterations N] [--seed S] [--no-noise]
//                      [--fair cfs|o1] [--gantt] [--paraver PREFIX]
//
// A missing or invalid value, and an unknown flag, exits 2 with one
// `error: <flag>: ...` line.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/iterations.h"
#include "analysis/paper_experiments.h"
#include "trace/gantt.h"
#include "trace/paraver.h"

using namespace hpcs;

namespace {

struct CliOptions {
  std::string workload = "metbench";
  std::string mode = "uniform";
  int iterations = 0;  // 0 = workload default; --iterations takes N >= 1
  std::uint64_t seed = 1;
  bool noise = true;
  std::string fair = "cfs";
  bool gantt = false;
  std::string paraver_prefix;
};

[[noreturn]] void fail(const char* flag, const std::string& why) {
  std::fprintf(stderr, "error: %s: %s\n", flag, why.c_str());
  std::exit(2);
}

/// `text` as an integer of at least `min`, or exit 2 naming `flag`.
template <typename T>
T parse_int(const char* flag, const char* text, T min) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || v < min) {
    fail(flag, std::string("'") + text + "' is not a " +
                   (min > 0 ? "positive" : "non-negative") + " integer");
  }
  return v;
}

analysis::SchedMode parse_mode(const std::string& m) {
  if (m == "baseline") return analysis::SchedMode::kBaselineCfs;
  if (m == "static") return analysis::SchedMode::kStatic;
  if (m == "uniform") return analysis::SchedMode::kUniform;
  if (m == "adaptive") return analysis::SchedMode::kAdaptive;
  if (m == "hybrid") return analysis::SchedMode::kHybrid;
  fail("--mode", "'" + m + "' is not baseline, static, uniform, adaptive or hybrid");
}

wl::ProgramSet make_workload(const CliOptions& o, std::vector<int>* static_prios) {
  if (o.workload == "metbench") {
    auto e = analysis::MetBenchExperiment::paper();
    if (o.iterations > 0) e.workload.iterations = o.iterations;
    *static_prios = e.static_prios;
    return wl::make_metbench(e.workload);
  }
  if (o.workload == "metbenchvar") {
    auto e = analysis::MetBenchVarExperiment::paper();
    if (o.iterations > 0) e.workload.iterations = o.iterations;
    *static_prios = e.static_prios;
    return wl::make_metbenchvar(e.workload);
  }
  if (o.workload == "btmz") {
    auto e = analysis::BtMzExperiment::paper();
    if (o.iterations > 0) e.workload.iterations = o.iterations;
    *static_prios = e.static_prios;
    return wl::make_btmz(e.workload);
  }
  if (o.workload == "siesta") {
    auto e = analysis::SiestaExperiment::paper();
    if (o.iterations > 0) e.workload.microiters = o.iterations;
    e.workload.seed = o.seed;
    return wl::make_siesta(e.workload);
  }
  fail("--workload", "'" + o.workload + "' is not metbench, metbenchvar, btmz or siesta");
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  // An absent or empty value, or the next flag in its place, is missing.
  auto need_value = [&](int& i) -> const char* {
    const char* flag = argv[i];
    const char* v = i + 1 < argc ? argv[++i] : "";
    if (v[0] == '\0' || std::strncmp(v, "--", 2) == 0) fail(flag, "missing value");
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--workload")) {
      o.workload = need_value(i);
    } else if (!std::strcmp(a, "--mode")) {
      o.mode = need_value(i);
    } else if (!std::strcmp(a, "--iterations")) {
      o.iterations = parse_int(a, need_value(i), 1);
    } else if (!std::strcmp(a, "--seed")) {
      o.seed = parse_int<std::uint64_t>(a, need_value(i), 0);
    } else if (!std::strcmp(a, "--no-noise")) {
      o.noise = false;
    } else if (!std::strcmp(a, "--fair")) {
      o.fair = need_value(i);
      if (o.fair != "cfs" && o.fair != "o1") fail(a, "'" + o.fair + "' is not cfs or o1");
    } else if (!std::strcmp(a, "--gantt")) {
      o.gantt = true;
    } else if (!std::strcmp(a, "--paraver")) {
      o.paraver_prefix = need_value(i);
    } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      std::printf(
          "usage: %s [--workload W] [--mode M] [--iterations N] [--seed S]\n"
          "          [--no-noise] [--fair cfs|o1] [--gantt] [--paraver PREFIX]\n"
          "workloads: metbench metbenchvar btmz siesta\n"
          "modes:     baseline static uniform adaptive hybrid\n",
          argv[0]);
      std::exit(0);
    } else {
      fail(a, "unknown flag");
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);

  std::vector<int> static_prios;
  auto programs = make_workload(o, &static_prios);
  const std::size_t ranks = programs.size();
  const analysis::SchedMode mode = parse_mode(o.mode);
  // Static with no priorities would run the baseline under a Static label.
  if (mode == analysis::SchedMode::kStatic && static_prios.empty()) {
    fail("--mode", o.workload + " has no static priorities");
  }

  analysis::ExperimentConfig cfg =
      analysis::paper_defaults(mode, o.seed, o.gantt || !o.paraver_prefix.empty());
  cfg.enable_noise = o.noise;
  cfg.static_prios = static_prios;
  cfg.kernel.fair_scheduler =
      o.fair == "o1" ? kern::FairScheduler::kO1 : kern::FairScheduler::kCfs;
  if (o.workload == "btmz") cfg.placement = {0, 2, 3, 1};

  const auto r = analysis::run_experiment(cfg, std::move(programs));

  std::printf("workload=%s mode=%s fair=%s seed=%llu ranks=%zu\n", o.workload.c_str(),
              o.mode.c_str(), o.fair.c_str(), static_cast<unsigned long long>(o.seed), ranks);
  std::printf("exec time: %.3fs   mean imbalance: %.3f   ctx switches: %lld   "
              "prio changes: %lld\n",
              r.exec_time.sec(), analysis::mean_imbalance(r),
              static_cast<long long>(r.context_switches),
              static_cast<long long>(r.hw_prio_changes));
  for (const auto& rank : r.ranks) {
    std::printf("  %-8s util %6.2f%%  hw prio %d  wakeups %-7lld avg latency %.1fus\n",
                rank.name.c_str(), rank.util_pct, rank.final_hw_prio,
                static_cast<long long>(rank.wakeups), rank.avg_wakeup_latency_us);
  }

  std::vector<Pid> pids;
  std::vector<std::string> labels;
  for (const auto& rank : r.ranks) {
    pids.push_back(rank.pid);
    labels.push_back(rank.name);
  }

  if (o.gantt && r.tracer) {
    trace::GanttOptions opt;
    opt.width = 110;
    std::printf("\n%s", trace::render_gantt(*r.tracer, pids, labels, opt).c_str());
  }
  if (!o.paraver_prefix.empty() && r.tracer) {
    trace::ParaverJob job;
    job.pids = pids;
    job.labels = labels;
    if (trace::export_paraver(o.paraver_prefix, *r.tracer, job)) {
      std::printf("\nParaver trace written to %s.{prv,pcf,row}\n", o.paraver_prefix.c_str());
    } else {
      std::fprintf(stderr, "failed to write Paraver trace to %s.*\n",
                   o.paraver_prefix.c_str());
      return 1;
    }
  }
  return 0;
}
