#include "analysis/experiment.h"

#include <algorithm>

#include "common/check.h"
#include "simcore/simulator.h"
#include "trace/multi_sink.h"

namespace hpcs::analysis {

const char* sched_mode_name(SchedMode m) {
  switch (m) {
    case SchedMode::kBaselineCfs: return "Baseline";
    case SchedMode::kStatic: return "Static";
    case SchedMode::kUniform: return "Uniform";
    case SchedMode::kAdaptive: return "Adaptive";
    case SchedMode::kHybrid: return "Hybrid";
  }
  return "?";
}

bool is_dynamic_mode(SchedMode m) {
  return m == SchedMode::kUniform || m == SchedMode::kAdaptive || m == SchedMode::kHybrid;
}

double RunResult::min_util() const {
  double v = 100.0;
  for (const auto& r : ranks) v = std::min(v, r.util_pct);
  return ranks.empty() ? 0.0 : v;
}

double RunResult::max_util() const {
  double v = 0.0;
  for (const auto& r : ranks) v = std::max(v, r.util_pct);
  return v;
}

bool RunResult::operator==(const RunResult& o) const {
  return mode == o.mode && exec_time == o.exec_time && ranks == o.ranks && marks == o.marks &&
         avg_wakeup_latency_us == o.avg_wakeup_latency_us &&
         context_switches == o.context_switches && migrations == o.migrations &&
         hw_prio_changes == o.hw_prio_changes && hpc_history_resets == o.hpc_history_resets &&
         messages == o.messages && metrics == o.metrics;
}

RunResult run_experiment(const ExperimentConfig& cfg,
                         std::vector<std::unique_ptr<mpi::RankProgram>> programs) {
  sim::Simulator simulator;
  kern::Kernel kernel(simulator, cfg.kernel);

  hpc::HpcSchedClass* hpc_class = nullptr;
  if (is_dynamic_mode(cfg.mode)) {
    hpc::HpcSchedConfig hc;
    hc.tunables = cfg.hpc;
    switch (cfg.mode) {
      case SchedMode::kUniform: hc.heuristic = hpc::HeuristicKind::kUniform; break;
      case SchedMode::kAdaptive: hc.heuristic = hpc::HeuristicKind::kAdaptive; break;
      default: hc.heuristic = hpc::HeuristicKind::kHybrid; break;
    }
    hpc_class = &hpc::install_hpcsched(kernel, hc);
  }

  std::unique_ptr<trace::Tracer> tracer;
  if (cfg.capture_trace) tracer = std::make_unique<trace::Tracer>();

  std::unique_ptr<obs::Recorder> recorder;
  std::unique_ptr<obs::ChromeTraceSink> chrome;
  if (cfg.obs.enabled) {
    recorder = std::make_unique<obs::Recorder>(cfg.obs);
    kernel.set_obs(recorder.get());
    if (cfg.obs.chrome_trace) chrome = std::make_unique<obs::ChromeTraceSink>();
  }

  // Every observer shares the kernel's single TraceSink pointer through the
  // fan-out, so Paraver-style tracing and the Perfetto exporter can record
  // one run simultaneously.
  trace::MultiSink sinks;
  sinks.add(tracer.get());
  sinks.add(chrome.get());
  if (!sinks.empty()) kernel.set_trace(&sinks);

  kernel.start();

  Rng noise_rng(cfg.seed * 2654435761u + 17);
  if (cfg.enable_noise) kern::spawn_noise_daemons(kernel, cfg.noise, noise_rng);

  mpi::MpiWorldConfig wc;
  wc.policy = is_dynamic_mode(cfg.mode) ? kern::Policy::kHpcRr : kern::Policy::kNormal;
  wc.placement = cfg.placement;
  if (cfg.mode == SchedMode::kStatic) wc.static_hw_prio = cfg.static_prios;
  wc.net = cfg.net;
  wc.seed = cfg.seed;
  mpi::MpiWorld world(kernel, wc, std::move(programs));
  world.start();

  const SimTime start = simulator.now();
  mpi::run_to_completion(simulator, world, cfg.deadline);

  RunResult res;
  res.mode = cfg.mode;
  res.exec_time = world.finish_time() - start;
  res.avg_wakeup_latency_us = kernel.wakeup_latency_us().mean();
  res.context_switches = kernel.context_switches();
  res.migrations = kernel.migrations();
  res.messages = world.messages_delivered();
  if (hpc_class != nullptr) {
    res.hw_prio_changes = hpc_class->priority_changes();
    res.hpc_history_resets = hpc_class->history_resets();
  }

  for (int r = 0; r < world.size(); ++r) {
    kern::Task& t = world.task(r);
    TaskResult tr;
    tr.name = t.name();
    tr.pid = t.pid();
    tr.util_pct = 100.0 * t.cpu_utilization();
    tr.final_hw_prio = p5::to_int(t.hw_prio);
    tr.cpu_time = t.t_run;
    tr.wakeups = t.nr_wakeups;
    tr.avg_wakeup_latency_us = t.wakeup_latency_us.mean();
    if (hpc_class != nullptr) {
      if (const auto* s = hpc_class->tracker().stats(t.pid())) {
        tr.iterations = s->total_iterations;
      }
    }
    res.ranks.push_back(tr);
    res.marks.push_back(world.marks(r));
  }

  if (tracer) {
    tracer->finalize(world.finish_time());
    res.tracer = std::move(tracer);
  }
  if (chrome) {
    chrome->finalize(world.finish_time());
    res.chrome = std::move(chrome);
  }
  kernel.set_trace(nullptr);
  if (recorder) {
    const sim::EventQueueStats& qs = simulator.queue_stats();
    res.metrics = recorder->snapshot(
        world.finish_time(),
        {.ticks = kernel.ticks_run(),
         .ticks_replayed = kernel.ticks_replayed(),
         .events_executed = static_cast<std::int64_t>(simulator.events_executed()),
         .eq_scheduled = qs.scheduled,
         .eq_resched_inplace = qs.resched_inplace,
         .eq_resched_pending = qs.resched_pending});
    kernel.set_obs(nullptr);
  }
  return res;
}

double improvement_pct(const RunResult& baseline, const RunResult& candidate) {
  HPCS_CHECK(baseline.exec_time > Duration::zero());
  return 100.0 * (1.0 - candidate.exec_time / baseline.exec_time);
}

}  // namespace hpcs::analysis
