#pragma once
// The experiment harness: one call runs a full simulated machine + kernel +
// scheduler + workload configuration to completion and returns the metrics
// the paper's tables report (%Comp per task, priorities, execution time)
// plus diagnostics (latency, switches, priority changes) and, optionally,
// the full trace.

#include <memory>
#include <string>
#include <vector>

#include "hpcsched/hpcsched.h"
#include "kernel/kernel.h"
#include "kernel/noise.h"
#include "obs/chrome_trace.h"
#include "obs/recorder.h"
#include "simmpi/mpi_world.h"
#include "trace/tracer.h"

namespace hpcs::analysis {

/// The four configurations of the paper's evaluation (plus the Hybrid
/// extension): stock CFS, CFS with hand-tuned static hardware priorities
/// ([5]), and HPCSched with each heuristic.
enum class SchedMode { kBaselineCfs, kStatic, kUniform, kAdaptive, kHybrid };

[[nodiscard]] const char* sched_mode_name(SchedMode m);
[[nodiscard]] bool is_dynamic_mode(SchedMode m);

struct ExperimentConfig {
  SchedMode mode = SchedMode::kBaselineCfs;
  kern::KernelConfig kernel{};
  hpc::HpcTunables hpc{};
  /// Static per-rank hardware priorities (kStatic mode only).
  std::vector<int> static_prios;
  /// rank -> initial CPU; empty = round-robin.
  std::vector<CpuId> placement;
  mpi::NetworkParams net{};
  bool enable_noise = true;
  kern::NoiseConfig noise{};
  bool capture_trace = false;
  /// Observability: the run's metrics and tracepoint hit counts (+ optional
  /// Chrome trace). Off by default; a run pays one null-pointer branch per
  /// record site when disabled.
  obs::ObsConfig obs{};
  std::uint64_t seed = 1;
  /// Abort if the workload has not completed by this simulated time.
  SimTime deadline = SimTime(std::int64_t{4} * 3600 * 1000000000);
};

struct TaskResult {
  std::string name;
  Pid pid = kInvalidPid;
  double util_pct = 0.0;      ///< the paper's "% Comp"
  int final_hw_prio = 4;
  Duration cpu_time = Duration::zero();
  std::int64_t wakeups = 0;
  double avg_wakeup_latency_us = 0.0;
  std::int64_t iterations = 0;  ///< iterations the HPC scheduler observed

  bool operator==(const TaskResult&) const = default;
};

struct RunResult {
  SchedMode mode = SchedMode::kBaselineCfs;
  Duration exec_time = Duration::zero();  ///< application wall time
  std::vector<TaskResult> ranks;
  std::vector<std::vector<mpi::IterationMark>> marks;  ///< per-rank iteration marks
  double avg_wakeup_latency_us = 0.0;
  std::int64_t context_switches = 0;
  std::int64_t migrations = 0;
  std::int64_t hw_prio_changes = 0;
  std::int64_t hpc_history_resets = 0;
  std::int64_t messages = 0;
  std::unique_ptr<trace::Tracer> tracer;  ///< non-null when capture_trace
  /// Observability outputs (cfg.obs.enabled): the recorder's end-of-run
  /// snapshot, plus the Chrome-trace view when requested.
  std::unique_ptr<obs::ChromeTraceSink> chrome;
  obs::MetricsSnapshot metrics;

  /// Lowest/highest rank utilization (the imbalance view).
  [[nodiscard]] double min_util() const;
  [[nodiscard]] double max_util() const;

  /// Equal when every value field is: the whole-run oracle (serial vs
  /// --jobs N, ticked vs tickless). Doubles compare by value. The tracer
  /// and chrome handles are not compared.
  bool operator==(const RunResult& o) const;
};

/// Run one experiment to completion. `programs` defines the workload (one
/// program per rank, see src/workloads).
RunResult run_experiment(const ExperimentConfig& cfg,
                         std::vector<std::unique_ptr<mpi::RankProgram>> programs);

/// Percentage improvement of `candidate` over `baseline` execution time.
[[nodiscard]] double improvement_pct(const RunResult& baseline, const RunResult& candidate);

}  // namespace hpcs::analysis
