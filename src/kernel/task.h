#pragma once
// Simulated task (process) descriptor — the moral equivalent of
// `struct task_struct` for this simulator, carrying scheduling state,
// accounting and the behaviour ("body") that drives the task.

#include <cstdint>
#include <memory>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "power5/hw_priority.h"
#include "simcore/event_queue.h"

namespace hpcs::kern {

class Kernel;
class Task;

/// Scheduling policies. The first two live in the real-time class, the HPC
/// pair in the HPCSched class (paper §IV-A), the normal/batch pair in CFS.
enum class Policy : std::uint8_t {
  kFifo,     ///< SCHED_FIFO
  kRr,       ///< SCHED_RR
  kHpcFifo,  ///< SCHED_HPC with the FIFO run-queue algorithm
  kHpcRr,    ///< SCHED_HPC with the round-robin run-queue algorithm
  kNormal,   ///< SCHED_NORMAL (a.k.a. SCHED_OTHER)
  kBatch,    ///< SCHED_BATCH
  kIdle,     ///< the per-CPU idle task
};

[[nodiscard]] const char* policy_name(Policy p);
[[nodiscard]] inline bool is_hpc_policy(Policy p) {
  return p == Policy::kHpcFifo || p == Policy::kHpcRr;
}

enum class TaskState : std::uint8_t {
  kRunnable,  ///< on a run queue (possibly running)
  kSleeping,  ///< blocked, waiting for a wakeup
  kExited,
};

/// What a task does when it reaches an interaction point. `step()` is called
/// when the task is first dispatched and whenever its current compute segment
/// completes; it must request exactly one action through the Kernel body API
/// (`body_compute`, `body_block`, `body_sleep`, `body_yield`, `body_exit`).
class TaskBody {
 public:
  virtual ~TaskBody() = default;
  virtual void step(Kernel& k, Task& t) = 0;
};

/// Accounting bucket a task is currently charged to.
enum class AccState : std::uint8_t { kRun, kReady, kSleep };

class Task {
 public:
  Task(Pid pid, std::string name, Policy policy) : pid_(pid), name_(std::move(name)), policy_(policy) {}

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  [[nodiscard]] Pid pid() const { return pid_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Policy policy() const { return policy_; }
  [[nodiscard]] TaskState state() const { return state_; }
  [[nodiscard]] bool exited() const { return state_ == TaskState::kExited; }

  // ---- scheduling fields (manipulated by the kernel and classes) ----

  /// Real-time priority for SCHED_FIFO / SCHED_RR (0 = highest, 99 lowest).
  int rt_prio = 0;
  /// Nice value for CFS (-20..19).
  int nice = 0;
  /// Hardware thread priority requested for this task (applied to the SMT
  /// context whenever the task is switched in).
  p5::HwPrio hw_prio = p5::kDefaultPrio;

  CpuId cpu = 0;                    ///< run queue the task belongs to
  CpuId pinned_cpu = kInvalidCpu;   ///< kInvalidCpu = runs anywhere
  bool on_rq = false;               ///< queued in a class structure or running

  Duration vruntime = Duration::zero();      ///< CFS virtual runtime
  Duration slice_left = Duration::zero();    ///< RR time slice remaining
  SimTime last_dispatch = SimTime::zero();   ///< time of last switch-in

  // ---- execution engine ----
  Work remaining = 0;  ///< work units left in the current compute segment

  // ---- statistics ----
  Duration t_run = Duration::zero();
  Duration t_ready = Duration::zero();
  Duration t_sleep = Duration::zero();
  std::int64_t nr_switches = 0;
  std::int64_t nr_migrations = 0;
  std::int64_t nr_wakeups = 0;
  RunningStat wakeup_latency_us;  ///< scheduler latency samples (microseconds)
  SimTime created = SimTime::zero();
  SimTime exit_time = SimTime::zero();

  /// Fraction of lifetime spent computing (the paper's "% Comp" column).
  [[nodiscard]] double cpu_utilization() const {
    const Duration total = t_run + t_ready + t_sleep;
    return total > Duration::zero() ? t_run / total : 0.0;
  }

 private:
  friend class Kernel;

  enum class Req : std::uint8_t { kNone, kCompute, kBlock, kSleep, kYield, kExit };

  Pid pid_;
  std::string name_;
  Policy policy_;
  TaskState state_ = TaskState::kSleeping;
  /// Index of the scheduling class owning policy_, cached by the kernel at
  /// creation / sched_setscheduler() so the per-tick and per-switch paths
  /// skip the owns() scan over the class chain.
  int class_idx_ = -1;

  std::unique_ptr<TaskBody> body_;

  // Request recorded by the body API during step(), executed afterwards.
  Req req_ = Req::kNone;
  Work req_work_ = 0;
  Duration req_sleep_ = Duration::zero();

  // Accounting.
  AccState acc_state_ = AccState::kSleep;
  SimTime acc_since_ = SimTime::zero();

  // Wakeup-latency measurement.
  SimTime wake_time_ = SimTime::zero();
  bool woken_pending_ = false;

  // The task's kernel timers (Kernel::create_task): the end of the wake cost
  // that precedes its enqueue, and the end of a body_sleep().
  sim::Timer wake_timer_;
  sim::Timer sleep_timer_;
};

}  // namespace hpcs::kern
