#pragma once
// The Scheduler Core plus the execution engine: the facade tying together the
// POWER5 machine model, the scheduling-class chain, per-CPU run queues, the
// timer tick, wakeups and the per-class workload balancer.
//
// Tasks "execute" by owning compute segments: while a task with remaining
// work sits on a CPU, a completion event is scheduled at
// now + remaining / context_speed. Any change of the context's speed (the
// SMT sibling starting/stopping, a hardware-priority write) re-linearizes
// the remaining work and re-arms the event — this is how the POWER5
// prioritization couples into task progress.

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/types.h"
#include "kernel/cfs_class.h"
#include "kernel/domains.h"
#include "kernel/o1_class.h"
#include "kernel/sched_class.h"
#include "kernel/task.h"
#include "kernel/trace_hooks.h"
#include "power5/chip.h"
#include "power5/priority_isa.h"
#include "simcore/simulator.h"

namespace hpcs::obs {
class Recorder;
}

namespace hpcs::kern {

/// Which generation of the fair scheduler handles SCHED_NORMAL/SCHED_BATCH:
/// the Completely Fair Scheduler of 2.6.23+ or the old O(1) scheduler the
/// paper's §III contrasts it with.
enum class FairScheduler { kCfs, kO1 };

struct KernelConfig {
  int num_cores = 2;   ///< cores per chip (POWER5: two cores, 2-way SMT)
  int num_chips = 1;   ///< chips in the system (adds the chip domain level)
  p5::ThroughputParams throughput{};
  Duration tick = Duration::milliseconds(1);  ///< HZ=1000
  Duration rt_rr_slice = Duration::milliseconds(100);
  FairScheduler fair_scheduler = FairScheduler::kCfs;
  CfsTunables cfs{};
  /// Ticks between periodic balancer runs on each CPU.
  int balance_interval_ticks = 64;
  /// When false the machine ignores hardware-priority writes (a non-POWER
  /// architecture): the HPC class still works but only its policy effect
  /// remains (paper §IV-C).
  bool hw_prio_enabled = true;
  /// The reference of the ticked == tickless differential test
  /// (tests/test_tickless.cpp): every CPU runs every tick. By default a CPU
  /// whose ticks only advance replayable state stops running them and
  /// replays them when next touched (docs/INTERNALS.md §3); both modes give
  /// byte-identical results.
  bool ticked_reference = false;
};

class Kernel {
 public:
  Kernel(sim::Simulator& sim, const KernelConfig& cfg);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Insert an additional scheduling class between the real-time and CFS
  /// classes (this is where HPCSched sits, paper Fig. 1b). Must be called
  /// before start(). Returns the registered class.
  SchedClass& add_class_before_cfs(std::unique_ptr<SchedClass> cls);

  /// Finalize the class chain, create idle tasks and start the timer tick.
  void start();
  [[nodiscard]] bool started() const { return started_; }

  // ---- task management ----

  /// Create a task (initially sleeping) placed on `initial_cpu`.
  Task& create_task(std::string name, std::unique_ptr<TaskBody> body, Policy policy,
                    CpuId initial_cpu);
  /// First wakeup of a freshly created task.
  void start_task(Task& t);

  // ---- syscalls ----

  /// sched_setscheduler(2): move a task to a new policy (and class).
  bool sched_setscheduler(Task& t, Policy policy, int rt_prio = 0);
  /// Pin a task to one CPU (kInvalidCpu clears the pin). Migrates if needed.
  bool sched_setaffinity(Task& t, CpuId cpu);
  /// nice(2): adjust the CFS weight.
  void set_nice(Task& t, int nice);

  // ---- body API (valid only inside TaskBody::step) ----

  void body_compute(Task& t, Work work);
  void body_block(Task& t);
  /// Sleep `d`, then wake. A task has one sleep timer: a new sleep re-arms
  /// it, so a sleep cut short by wake() cannot cut the next one short.
  void body_sleep(Task& t, Duration d);
  void body_yield(Task& t);
  void body_exit(Task& t);

  /// Wake a sleeping task (message arrival, timer, ...). Safe on tasks that
  /// are already runnable or exited (no-op).
  void wake(Task& t);

  /// Set a task's requested hardware thread priority; applied to the SMT
  /// context immediately if the task is running, otherwise at next dispatch.
  /// This is the entry point the HPCSched Mechanism uses.
  void request_hw_prio(Task& t, p5::HwPrio prio);

  // ---- accessors ----

  [[nodiscard]] SimTime now() const { return sim_->now(); }
  [[nodiscard]] sim::Simulator& sim() { return *sim_; }
  [[nodiscard]] p5::Chip& chip() { return chip_; }
  [[nodiscard]] p5::PriorityIsa& isa() { return isa_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] Duration tick_period() const { return cfg_.tick; }
  [[nodiscard]] bool hw_prio_enabled() const { return cfg_.hw_prio_enabled; }
  [[nodiscard]] int num_cpus() const { return topo_.num_cpus(); }
  [[nodiscard]] Rq& rq(CpuId cpu) { return cs(cpu).rq; }
  [[nodiscard]] SchedClass* class_for(Policy p) const;
  [[nodiscard]] const std::vector<std::unique_ptr<SchedClass>>& classes() const {
    return classes_;
  }

  void set_trace(TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] TraceSink* trace() const { return trace_; }

  /// Attach the per-run observability recorder (tracepoints + metrics)
  /// before start(); nullptr (the default) disables every record site at the
  /// cost of one predictable branch.
  void set_obs(obs::Recorder* rec);
  [[nodiscard]] obs::Recorder* obs() const { return obs_; }

  [[nodiscard]] std::int64_t context_switches() const { return ctx_switches_; }
  [[nodiscard]] std::int64_t migrations() const { return migrations_; }
  [[nodiscard]] std::int64_t balance_pulls() const { return balance_pulls_; }
  /// Per-CPU ticks run by the tick event, and ticks a dormant CPU skipped
  /// and replayed later (kern.ticks / kern.ticks_replayed).
  [[nodiscard]] std::int64_t ticks_run() const { return ticks_run_; }
  [[nodiscard]] std::int64_t ticks_replayed() const { return ticks_replayed_; }
  [[nodiscard]] const RunningStat& wakeup_latency_us() const { return wakeup_latency_us_; }

  /// Trigger a reschedule of `cpu` (deferred to a zero-delay event; a
  /// reschedule already pending covers this one).
  void resched_cpu(CpuId cpu);

  /// Flush pending run/ready/sleep accounting of a task up to now(),
  /// replaying the ticks its CPU skipped first.
  void flush_account(Task& t);

 private:
  struct CpuState {
    Rq rq;
    std::unique_ptr<Task> idle_task;
    SimTime seg_start = SimTime::zero();
    double seg_speed = 0.0;
    /// Ticks taken so far, run or replayed: tick i is at tick_time(i).
    std::int64_t ticks = 0;
    /// The index of this CPU's next balance tick, the next i with
    /// (i + cpu) % balance_interval_ticks == 0; never reached when that is
    /// <= 0 (balancing off).
    std::int64_t next_balance = std::numeric_limits<std::int64_t>::max();
    sim::Timer exec_timer;     ///< completion of curr's compute segment
    sim::Timer resched_timer;  ///< the deferred schedule_cpu of resched_cpu()
    bool exec_active = false;
    /// The tick event skips this CPU except at its balance boundaries; its
    /// other ticks are replayed when a kernel entry next touches it.
    bool dormant = false;
  };

  CpuState& cs(CpuId cpu) {
    HPCS_CHECK(cpu >= 0 && cpu < static_cast<CpuId>(cpus_.size()));
    return cpus_[static_cast<std::size_t>(cpu)];
  }
  [[nodiscard]] int class_index(Policy p) const;

  // Run-queue plumbing.
  void enqueue_task(Task& t, bool wakeup);
  void dequeue_task(Task& t, bool sleep);
  void maybe_preempt(CpuId cpu, Task& woken);
  Task* pick_next(Rq& rq);
  void schedule_cpu(CpuId cpu);
  void set_acc_state(Task& t, AccState s);
  void account_to(Task& t, SimTime when);

  // Execution engine.
  void accrue_exec(CpuState& c);
  void stop_exec(CpuState& c);
  void start_exec(CpuState& c);
  void arm_exec_event(CpuState& c);
  void on_exec_event(CpuId cpu);
  void on_speed_change(CoreId core);

  // Wakeups.
  void do_wake(Task& t);

  // Tick + balancing.
  void on_tick();
  void tick_cpu(CpuId cpu);
  [[nodiscard]] SimTime tick_time(std::int64_t i) const { return tick_origin_ + cfg_.tick * i; }
  [[nodiscard]] std::int64_t next_tick_index() const;
  // Tick elision. Most kernel entries find their CPU awake or no skipped tick
  // due yet, so these tests are inline and only the work calls out.
  [[nodiscard]] bool replayable(const CpuState& c) const;
  void replay_ticks(CpuId cpu) {
    CpuState& c = cs(cpu);
    if (c.dormant && now() >= tick_time(c.ticks + 1)) replay_dormant(c);
  }
  void replay_dormant(CpuState& c);
  void replay_to(CpuState& c, std::int64_t target);
  void check_dormant(CpuId cpu) {
    CpuState& c = cs(cpu);
    if (c.dormant && !replayable(c)) wake_from_dormant(c);
  }
  void wake_from_dormant(CpuState& c);
  bool balance_pull(CpuId cpu, SchedClass& cls);
  void migrate(Task& t, CpuId dst);

  sim::Simulator* sim_;
  KernelConfig cfg_;
  p5::Chip chip_;
  p5::PriorityIsa isa_;
  Topology topo_;
  TraceSink* trace_ = nullptr;
  obs::Recorder* obs_ = nullptr;

  std::vector<std::unique_ptr<SchedClass>> classes_;  ///< priority order
  int cfs_index_ = -1;
  /// The classes whose wants_balance() is true, in chain order, and each
  /// class's wakeup_cost(), by class index: both read once, at start().
  std::vector<SchedClass*> balance_classes_;
  std::vector<Duration> wakeup_cost_;
  /// Per class, the tasks queued on some CPU but not running there: the sum
  /// over CPUs of rq.class_count minus the CPUs whose curr is of the class.
  /// balance_pull's early-out reads it instead of scanning every CPU.
  std::vector<int> queued_;
  std::vector<CpuState> cpus_;
  std::vector<std::unique_ptr<Task>> tasks_;
  Pid next_pid_ = 1;
  bool started_ = false;

  /// One tick timer for all CPUs (Lane::kFirst: ticks run before every
  /// other event at their instant), armed for tick tick_index_.
  sim::Timer tick_timer_;
  SimTime tick_origin_ = SimTime::zero();  ///< start(): tick i fires at origin + i * tick
  std::int64_t tick_index_ = 0;
  /// While the tick event runs, the CPU being ticked; CPUs numbered above it
  /// have not taken tick tick_index_ yet. kNoTickCursor otherwise.
  static constexpr CpuId kNoTickCursor = std::numeric_limits<CpuId>::max();
  CpuId tick_cursor_ = kNoTickCursor;

  std::int64_t ctx_switches_ = 0;
  std::int64_t migrations_ = 0;
  std::int64_t balance_pulls_ = 0;
  std::int64_t ticks_run_ = 0;
  std::int64_t ticks_replayed_ = 0;
  RunningStat wakeup_latency_us_;
};

}  // namespace hpcs::kern
