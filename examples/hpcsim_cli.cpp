// hpcsim command-line driver: run any packaged workload under any scheduler
// configuration and inspect the result — tables, ASCII Gantt, PARAVER
// export. The "swiss-army knife" entry point of the library.
//
// Usage:
//   example_hpcsim_cli [--workload metbench|metbenchvar|btmz|siesta|wavefront]
//                      [--mode baseline|static|uniform|adaptive|hybrid]
//                      [--iterations N] [--seed S] [--no-noise]
//                      [--fair cfs|o1] [--gantt] [--paraver PREFIX]

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/iterations.h"
#include "analysis/paper_experiments.h"
#include "trace/gantt.h"
#include "trace/paraver.h"
#include "workloads/wavefront.h"

using namespace hpcs;

namespace {

struct CliOptions {
  std::string workload = "metbench";
  std::string mode = "uniform";
  int iterations = 0;  // 0 = workload default
  std::uint64_t seed = 1;
  bool noise = true;
  std::string fair = "cfs";
  bool gantt = false;
  std::string paraver_prefix;
};

analysis::SchedMode parse_mode(const std::string& m) {
  if (m == "baseline") return analysis::SchedMode::kBaselineCfs;
  if (m == "static") return analysis::SchedMode::kStatic;
  if (m == "uniform") return analysis::SchedMode::kUniform;
  if (m == "adaptive") return analysis::SchedMode::kAdaptive;
  if (m == "hybrid") return analysis::SchedMode::kHybrid;
  std::fprintf(stderr, "unknown mode '%s'\n", m.c_str());
  std::exit(2);
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
  if (o.workload == "wavefront") {
    wl::WavefrontConfig cfg;
    if (o.iterations > 0) cfg.iterations = o.iterations;
    return wl::make_wavefront(cfg);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--workload")) {
      o.workload = need_value(i);
    } else if (!std::strcmp(a, "--mode")) {
      o.mode = need_value(i);
    } else if (!std::strcmp(a, "--iterations")) {
      o.iterations = std::atoi(need_value(i));
    } else if (!std::strcmp(a, "--seed")) {
      o.seed = static_cast<std::uint64_t>(std::atoll(need_value(i)));
    } else if (!std::strcmp(a, "--no-noise")) {
      o.noise = false;
    } else if (!std::strcmp(a, "--fair")) {
      o.fair = need_value(i);
    } else if (!std::strcmp(a, "--gantt")) {
      o.gantt = true;
    } else if (!std::strcmp(a, "--paraver")) {
      o.paraver_prefix = need_value(i);
    } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      std::printf(
          "usage: %s [--workload W] [--mode M] [--iterations N] [--seed S]\n"
          "          [--no-noise] [--fair cfs|o1] [--gantt] [--paraver PREFIX]\n"
          "workloads: metbench metbenchvar btmz siesta wavefront\n"
          "modes:     baseline static uniform adaptive hybrid\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", a);
      std::exit(2);
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

  analysis::ExperimentConfig cfg = analysis::paper_defaults(parse_mode(o.mode), o.seed,
                                                            o.gantt || !o.paraver_prefix.empty());
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
