#pragma once
// Outside-in layer spans for the traced run. Every span here is recorded from
// the benchmark's own code, around calls into a layer's public interface:
//
//   - TimedClass wraps an hpc::HpcSchedClass behind the kern::SchedClass
//     interface (installed with Kernel::add_class_before_cfs);
//   - TimedMechanism / TimedHeuristic wrap the class's Mechanism and
//     Heuristic;
//   - TimedProgram wraps each mpi::RankProgram;
//   - LayerSink is a kern::TraceSink that counts callbacks and records the
//     run's POWER5 chip traffic so it can be replayed into a fresh p5::Chip.
//
// run_decorated() reassembles analysis::run_experiment() from those public
// pieces. The decorators only forward, so it must produce the same result
// digest as run_experiment() for the same config and programs.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "hpcsched/hpc_class.h"
#include "kernel/trace_hooks.h"
#include "simmpi/ops.h"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Span timestamps: the x86 time-stamp counter where there is one (a few ns
/// per read, against tens for steady_clock), else steady_clock nanoseconds.
/// ns_per_tick() calibrates ticks against steady_clock once per process.
[[nodiscard]] inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch()).count());
#endif
}
[[nodiscard]] double ns_per_tick();

/// Accumulated host time and call count of one span kind.
struct Span {
  std::uint64_t ticks = 0;
  std::int64_t calls = 0;
  [[nodiscard]] double sec() const { return static_cast<double>(ticks) * ns_per_tick() * 1e-9; }
};

/// Adds the lifetime of the guard to a Span.
class SpanGuard {
 public:
  explicit SpanGuard(Span& s) : span_(s), t0_(ticks()) {}
  ~SpanGuard() {
    span_.ticks += ticks() - t0_;
    ++span_.calls;
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Span& span_;
  std::uint64_t t0_;
};

/// Host cost of one SpanGuard (two clock reads plus the bookkeeping), in ns,
/// measured on an empty span. Spans are not corrected for it; the
/// attribution table reports it so fine-grained layers can be read with it.
[[nodiscard]] double span_cost_ns();

/// The comparable outcome of one run: what the paper's tables and the
/// determinism contract depend on.
struct Digest {
  std::int64_t exec_ns = 0;
  std::vector<double> util_pct;
  std::vector<std::int64_t> cpu_time_ns;
  std::vector<std::int64_t> wakeups;
  std::int64_t ctx_switches = 0;
  std::int64_t migrations = 0;
  std::int64_t messages = 0;
  std::int64_t prio_changes = 0;

  bool operator==(const Digest&) const = default;
  /// FNV-1a over every field, for printing and cross-run comparison.
  [[nodiscard]] std::uint64_t hash() const;
};

[[nodiscard]] Digest digest_of(const hpcs::analysis::RunResult& r);

/// One chip write the kernel made, as seen through the TraceSink.
struct ChipOp {
  std::int8_t cpu = 0;
  bool is_switch = false;  ///< context switch (else: priority write on a running task)
  bool active = false;     ///< switch: incoming task is not the idle task
  std::uint8_t prio = 4;   ///< incoming / new hardware priority
};

/// Counts every TraceSink callback and records chip traffic. Wakeups are the
/// on_state(kRunnable) transitions of every task, noise daemons included.
class LayerSink final : public hpcs::kern::TraceSink {
 public:
  explicit LayerSink(int num_cpus) : curr_(static_cast<std::size_t>(num_cpus), nullptr) {}

  void on_switch(hpcs::SimTime t, hpcs::CpuId cpu, const hpcs::kern::Task* prev,
                 const hpcs::kern::Task* next) override;
  void on_state(hpcs::SimTime t, const hpcs::kern::Task& task,
                hpcs::kern::TaskState new_state) override;
  void on_hw_prio(hpcs::SimTime t, const hpcs::kern::Task& task, hpcs::p5::HwPrio prio) override;
  void on_wakeup_latency(hpcs::SimTime t, const hpcs::kern::Task& task,
                         hpcs::Duration latency) override;
  void on_iteration(hpcs::SimTime t, const hpcs::kern::Task& task, int iteration,
                    double util_last, double util_global) override;

  std::int64_t events = 0;
  std::int64_t wakeups = 0;
  std::vector<ChipOp> chip_ops;

 private:
  std::vector<const hpcs::kern::Task*> curr_;  ///< task on each CPU
};

/// Replays recorded chip traffic into a fresh chip the way
/// Kernel::schedule_cpu / start_exec make them: set_cpu_active, then
/// set_cpu_priority when the incoming priority differs, then cpu_speed.
struct ReplayResult {
  std::int64_t calls = 0;
  double seconds = 0.0;
  double speed_sum = 0.0;  ///< consumed so the replay cannot be elided
};
[[nodiscard]] ReplayResult replay_chip(const std::vector<ChipOp>& ops,
                                       const hpcs::kern::KernelConfig& kcfg);

/// Per-run spans and counts of the decorated reassembly.
struct LayerStats {
  double run_s = 0.0;   ///< whole reassembled run
  double loop_s = 0.0;  ///< the run_to_completion part of run_s
  Span hpc_class;       ///< every SchedClass hook of the HPC class
  Span mechanism;       ///< Mechanism::apply / read (inside hpc_class)
  Span heuristic;       ///< Heuristic::metric (inside hpc_class)
  Span next;            ///< RankProgram::next
  std::int64_t iterations = 0;
  std::int64_t prio_changes = 0;
  std::int64_t ctx_switches = 0;
  std::int64_t migrations = 0;
  std::int64_t balance_pulls = 0;
  std::int64_t messages = 0;
  std::int64_t sink_events = 0;
  std::int64_t wakeups = 0;
  std::int64_t accounting_violations = 0;  ///< ranks with run+ready+sleep != lifetime
  std::vector<ChipOp> chip_ops;
};

struct DecoratedRun {
  Digest digest;
  LayerStats stats;
};

/// run_experiment() rebuilt from public pieces with every layer decorated.
[[nodiscard]] DecoratedRun run_decorated(const hpcs::analysis::ExperimentConfig& cfg,
                                         std::vector<std::unique_ptr<hpcs::mpi::RankProgram>> programs);

}  // namespace pb
