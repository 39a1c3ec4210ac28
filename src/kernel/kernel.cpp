#include "kernel/kernel.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/log.h"
#include "kernel/cfs_class.h"
#include "kernel/idle_class.h"
#include "kernel/rt_class.h"
#include "obs/recorder.h"

namespace hpcs::kern {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kFifo: return "SCHED_FIFO";
    case Policy::kRr: return "SCHED_RR";
    case Policy::kHpcFifo: return "SCHED_HPC(FIFO)";
    case Policy::kHpcRr: return "SCHED_HPC(RR)";
    case Policy::kNormal: return "SCHED_NORMAL";
    case Policy::kBatch: return "SCHED_BATCH";
    case Policy::kIdle: return "SCHED_IDLE";
  }
  return "?";
}

Kernel::Kernel(sim::Simulator& sim, const KernelConfig& cfg)
    : sim_(&sim),
      cfg_(cfg),
      chip_(cfg.num_cores * cfg.num_chips, cfg.throughput),
      isa_(chip_),
      topo_(Topology::power5_system(cfg.num_chips, cfg.num_cores)) {
  classes_.push_back(std::make_unique<RtClass>(cfg.rt_rr_slice));
  if (cfg.fair_scheduler == FairScheduler::kCfs) {
    classes_.push_back(std::make_unique<CfsClass>(cfg.cfs));
  } else {
    classes_.push_back(std::make_unique<O1Class>(cfg.o1));
  }
  classes_.push_back(std::make_unique<IdleClass>());
  cfs_index_ = 1;
}

Kernel::~Kernel() = default;

SchedClass& Kernel::add_class_before_cfs(std::unique_ptr<SchedClass> cls) {
  HPCS_CHECK_MSG(!started_, "classes must be registered before start()");
  SchedClass& ref = *cls;
  classes_.insert(classes_.begin() + cfs_index_, std::move(cls));
  ++cfs_index_;
  return ref;
}

void Kernel::start() {
  HPCS_CHECK_MSG(!started_, "kernel already started");
  started_ = true;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    classes_[i]->set_index(static_cast<int>(i));
  }
  cpus_.resize(static_cast<std::size_t>(topo_.num_cpus()));
  for (CpuId cpu = 0; cpu < topo_.num_cpus(); ++cpu) {
    CpuState& c = cpus_[static_cast<std::size_t>(cpu)];
    c.rq.cpu = cpu;
    for (const auto& cls : classes_) {
      c.rq.class_rqs.push_back(cls->make_rq());
      c.rq.class_count.push_back(0);
    }
    c.idle_task = std::make_unique<Task>(-(cpu + 1), "idle/" + std::to_string(cpu),
                                         Policy::kIdle);
    c.idle_task->class_idx_ = class_index(Policy::kIdle);
    c.idle_task->cpu = cpu;
    c.rq.idle = c.idle_task.get();
    c.rq.curr = c.idle_task.get();
    if (cfg_.balance_interval_ticks > 0) {
      // First tick with (ticks + cpu) % interval == 0, expressed as a
      // countdown so on_tick never divides.
      const std::int64_t n = cfg_.balance_interval_ticks;
      c.balance_countdown = (n - (1 + cpu) % n) % n + 1;
    }
    c.tick_event = sim_->schedule_in(cfg_.tick, [this, cpu] { on_tick(cpu); });
  }
  chip_.set_listener([this](CoreId core) { on_speed_change(core); });
  // Every CPU boots idle: start their snooze timers.
  for (CpuId cpu = 0; cpu < topo_.num_cpus(); ++cpu) arm_snooze(cpu);

  if (cfg_.fair_scheduler != FairScheduler::kCfs) return;

  // sysfs view of the CFS knobs, mirroring /proc/sys/kernel/sched_*.
  auto* cfs = static_cast<CfsClass*>(classes_[static_cast<std::size_t>(cfs_index_)].get());
  sysfs_.register_attr(
      "kernel/sched_latency_ns", [cfs] { return cfs->tunables().latency.ns(); },
      [cfs](std::int64_t v) {
        if (v <= 0) return false;
        cfs->tunables().latency = Duration(v);
        return true;
      });
  sysfs_.register_attr(
      "kernel/sched_min_granularity_ns",
      [cfs] { return cfs->tunables().min_granularity.ns(); },
      [cfs](std::int64_t v) {
        if (v <= 0) return false;
        cfs->tunables().min_granularity = Duration(v);
        return true;
      });
  sysfs_.register_attr(
      "kernel/sched_wakeup_granularity_ns",
      [cfs] { return cfs->tunables().wakeup_granularity.ns(); },
      [cfs](std::int64_t v) {
        if (v < 0) return false;
        cfs->tunables().wakeup_granularity = Duration(v);
        return true;
      });
}

Kernel::CpuState& Kernel::cs(CpuId cpu) {
  HPCS_CHECK(cpu >= 0 && cpu < static_cast<CpuId>(cpus_.size()));
  return cpus_[static_cast<std::size_t>(cpu)];
}

Rq& Kernel::rq(CpuId cpu) { return cs(cpu).rq; }

int Kernel::class_index(Policy p) const {
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i]->owns(p)) return static_cast<int>(i);
  }
  HPCS_CHECK_MSG(false, "no scheduling class owns this policy");
  return -1;
}

SchedClass* Kernel::class_for(Policy p) const {
  for (const auto& cls : classes_) {
    if (cls->owns(p)) return cls.get();
  }
  return nullptr;
}

Task* Kernel::find_task(Pid pid) const {
  for (const auto& t : tasks_) {
    if (t->pid() == pid) return t.get();
  }
  return nullptr;
}

Task& Kernel::create_task(std::string name, std::unique_ptr<TaskBody> body, Policy policy,
                          CpuId initial_cpu) {
  HPCS_CHECK_MSG(started_, "start() the kernel before creating tasks");
  HPCS_CHECK_MSG(policy != Policy::kIdle, "cannot create user tasks with the idle policy");
  HPCS_CHECK_MSG(class_for(policy) != nullptr,
                 "no scheduling class registered for this policy");
  HPCS_CHECK(initial_cpu >= 0 && initial_cpu < topo_.num_cpus());
  auto t = std::make_unique<Task>(next_pid_++, std::move(name), policy);
  t->class_idx_ = class_index(policy);
  t->body_ = std::move(body);
  t->cpu = initial_cpu;
  t->created = now();
  t->acc_since_ = now();
  Task& ref = *t;
  tasks_.push_back(std::move(t));
  return ref;
}

void Kernel::start_task(Task& t) { wake(t); }

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

void Kernel::flush_account(Task& t) {
  if (t.state_ == TaskState::kExited) return;
  const Duration delta = now() - t.acc_since_;
  t.acc_since_ = now();
  if (delta <= Duration::zero()) return;
  switch (t.acc_state_) {
    case AccState::kRun:
      t.t_run += delta;
      t.vruntime += CfsClass::calc_delta_fair(delta, t.nice);
      break;
    case AccState::kReady:
      t.t_ready += delta;
      break;
    case AccState::kSleep:
      t.t_sleep += delta;
      break;
  }
}

void Kernel::set_acc_state(Task& t, AccState s) {
  flush_account(t);
  t.acc_state_ = s;
}

// HPCS_HOT_BEGIN — run-queue plumbing, switch path, execution engine and
// wakeups: every event of a run passes through here.

// ---------------------------------------------------------------------------
// Run-queue plumbing
// ---------------------------------------------------------------------------

void Kernel::enqueue_task(Task& t, bool wakeup) {
  Rq& r = rq(t.cpu);
  const int idx = t.class_idx_;
  classes_[static_cast<std::size_t>(idx)]->enqueue(*this, r, t, wakeup);
  t.on_rq = true;
  ++r.class_count[static_cast<std::size_t>(idx)];
  set_acc_state(t, AccState::kReady);
}

void Kernel::dequeue_task(Task& t, bool sleep) {
  Rq& r = rq(t.cpu);
  const int idx = t.class_idx_;
  classes_[static_cast<std::size_t>(idx)]->dequeue(*this, r, t, sleep);
  t.on_rq = false;
  --r.class_count[static_cast<std::size_t>(idx)];
  HPCS_CHECK(r.class_count[static_cast<std::size_t>(idx)] >= 0);
}

void Kernel::maybe_preempt(CpuId cpu, Task& woken) {
  Rq& r = rq(cpu);
  Task* curr = r.curr;
  if (curr == nullptr || curr == r.idle) {
    resched_cpu(cpu);
    return;
  }
  const int wi = woken.class_idx_;
  const int ci = curr->class_idx_;
  if (wi < ci) {
    // Class ordering: a higher-priority class always preempts (paper §III).
    resched_cpu(cpu);
  } else if (wi == ci &&
             classes_[static_cast<std::size_t>(wi)]->wakeup_preempt(*this, r, *curr, woken)) {
    resched_cpu(cpu);
  }
}

void Kernel::resched_cpu(CpuId cpu) {
  CpuState& c = cs(cpu);
  if (c.resched_pending) return;
  c.resched_pending = true;
  sim_->schedule_in(Duration::zero(), [this, cpu] {
    cs(cpu).resched_pending = false;
    schedule_cpu(cpu);
  });
}

Task* Kernel::pick_next(Rq& r) {
  // Classes with nothing runnable here are not asked (sched_class.h); the
  // idle class counts no task and falls through to r.idle, as it would pick.
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (r.class_count[i] == 0) continue;
    if (Task* t = classes_[i]->pick_next(*this, r)) return t;
  }
  return r.idle;
}

void Kernel::schedule_cpu(CpuId cpu) {
  CpuState& c = cs(cpu);
  Rq& r = c.rq;
  accrue_exec(cpu);
  stop_exec(cpu);

  Task* prev = r.curr;
  if (prev != nullptr && prev != r.idle && prev->state() == TaskState::kRunnable) {
    set_acc_state(*prev, AccState::kReady);
    classes_[static_cast<std::size_t>(prev->class_idx_)]->put_prev(*this, r, *prev);
  }

  Task* next = pick_next(r);
  if (next == r.idle && !in_balance_) {
    // New-idle balancing: try to pull work before going idle (paper §IV-A).
    in_balance_ = true;
    for (const auto& cls : classes_) {
      if (cls->wants_balance() && balance_pull(cpu, *cls)) break;
    }
    in_balance_ = false;
    next = pick_next(r);
  }

  r.curr = next;
  r.need_resched = false;
  if (next != prev) {
    ++ctx_switches_;
    if (next != r.idle) ++next->nr_switches;
    if (trace_ != nullptr) trace_->on_switch(now(), cpu, prev, next);
    HPCS_TRACEPOINT(obs_, obs::TpId::kTpSchedSwitch, now(), cpu,
                    next != r.idle ? next->pid() : kInvalidPid,
                    (prev != nullptr && prev != r.idle) ? prev->pid() : kInvalidPid);
    if (obs_ != nullptr) {
      std::int64_t depth = 0;
      for (const int n : r.class_count) depth += n;
      obs_->runq_depth().observe(static_cast<double>(depth));
    }
  }

  if (next != r.idle) {
    set_acc_state(*next, AccState::kRun);
    next->last_dispatch = now();
    if (next->woken_pending_) {
      const Duration lat = now() - next->wake_time_;
      next->woken_pending_ = false;
      wakeup_latency_us_.add(lat.us());
      next->wakeup_latency_us.add(lat.us());
      if (trace_ != nullptr) trace_->on_wakeup_latency(now(), *next, lat);
      if (obs_ != nullptr) obs_->wakeup_latency_us().observe(lat.us());
    }
    sim_->cancel(c.snooze_event);
    chip_.set_cpu_active(cpu, true);
    if (cfg_.hw_prio_enabled && chip_.cpu_priority(cpu) != next->hw_prio) {
      // The context switch path issues the or-nop that restores the incoming
      // task's hardware priority (Mechanism, paper §IV-C).
      isa_.set_priority(cpu, next->hw_prio, p5::Privilege::kSupervisor);
    }
  } else {
    chip_.set_cpu_active(cpu, false);
    arm_snooze(cpu);
  }
  start_exec(cpu);
}

// ---------------------------------------------------------------------------
// Execution engine
// ---------------------------------------------------------------------------

void Kernel::arm_snooze(CpuId cpu) {
  // The idle loop spins for smt_snooze_delay, then cedes the core to the
  // sibling context (Linux/POWER5 snooze).
  if (cfg_.smt_snooze_delay < Duration::zero()) return;
  CpuState& c = cs(cpu);
  if (sim_->reschedule_in(c.snooze_event, cfg_.smt_snooze_delay)) return;
  c.snooze_event =
      sim_->schedule_in(cfg_.smt_snooze_delay, [this, cpu] { chip_.set_cpu_snoozed(cpu, true); });
}

void Kernel::accrue_exec(CpuId cpu) {
  CpuState& c = cs(cpu);
  if (!c.exec_active) return;
  Task* t = c.rq.curr;
  HPCS_CHECK(t != nullptr && t != c.rq.idle);
  const Duration delta = now() - c.seg_start;
  c.seg_start = now();
  if (delta <= Duration::zero()) return;
  t->remaining -= static_cast<double>(delta.ns()) * c.seg_speed;
  if (t->remaining < 0.0) t->remaining = 0.0;
}

void Kernel::stop_exec(CpuId cpu) {
  CpuState& c = cs(cpu);
  c.exec_active = false;
  sim_->cancel(c.exec_event);
}

void Kernel::start_exec(CpuId cpu) {
  CpuState& c = cs(cpu);
  Task* t = c.rq.curr;
  if (t == nullptr || t == c.rq.idle) return;
  c.exec_active = true;
  c.seg_start = now();
  c.seg_speed = chip_.cpu_speed(cpu);
  arm_exec_event(cpu);
}

void Kernel::arm_exec_event(CpuId cpu) {
  CpuState& c = cs(cpu);
  Task* t = c.rq.curr;
  HPCS_CHECK(t != nullptr && t != c.rq.idle);
  Duration delay = Duration::zero();
  if (t->remaining > 0.0) {
    if (c.seg_speed <= 0.0) {
      // Context stalled; re-armed on speed change.
      sim_->cancel(c.exec_event);
      return;
    }
    delay = Duration(static_cast<std::int64_t>(std::ceil(t->remaining / c.seg_speed)));
  }
  // Completion events are re-armed constantly (every speed change, every
  // compute segment): move the pending/firing event instead of paying the
  // cancel + slot-allocate + closure-construct cycle.
  if (sim_->reschedule_in(c.exec_event, delay)) return;
  c.exec_event = sim_->schedule_in(delay, [this, cpu] { on_exec_event(cpu); });
}

void Kernel::on_exec_event(CpuId cpu) {
  CpuState& c = cs(cpu);
  HPCS_CHECK(c.exec_active);
  accrue_exec(cpu);
  Task* t = c.rq.curr;
  HPCS_CHECK(t != nullptr && t != c.rq.idle);
  if (t->remaining > 0.5) {
    // Rounding residue: finish the tail of the segment.
    arm_exec_event(cpu);
    return;
  }
  t->remaining = 0.0;

  HPCS_CHECK_MSG(t->body_ != nullptr, "task reached an interaction point without a body");
  t->req_ = Task::Req::kNone;
  t->body_->step(*this, *t);

  switch (t->req_) {
    case Task::Req::kCompute:
      t->remaining = t->req_work_;
      arm_exec_event(cpu);
      break;
    case Task::Req::kBlock:
    case Task::Req::kSleep: {
      set_acc_state(*t, AccState::kSleep);
      t->state_ = TaskState::kSleeping;
      if (trace_ != nullptr) trace_->on_state(now(), *t, TaskState::kSleeping);
      dequeue_task(*t, true);
      if (t->req_ == Task::Req::kSleep) {
        Task* tp = t;
        sim_->schedule_in(t->req_sleep_, [this, tp] { wake(*tp); });
      }
      schedule_cpu(cpu);
      break;
    }
    case Task::Req::kYield:
      classes_[static_cast<std::size_t>(t->class_idx_)]->yield(*this, c.rq, *t);
      schedule_cpu(cpu);
      break;
    case Task::Req::kExit:
      flush_account(*t);
      t->state_ = TaskState::kExited;
      t->exit_time = now();
      if (trace_ != nullptr) trace_->on_state(now(), *t, TaskState::kExited);
      dequeue_task(*t, true);
      schedule_cpu(cpu);
      break;
    case Task::Req::kNone:
      HPCS_CHECK_MSG(false, "TaskBody::step() must request exactly one action");
      break;
  }
}

void Kernel::on_speed_change(CoreId core) {
  for (p5::CtxId ctx = 0; ctx < 2; ++ctx) {
    const CpuId cpu = p5::Chip::cpu_of(core, ctx);
    CpuState& c = cs(cpu);
    if (!c.exec_active) continue;
    accrue_exec(cpu);  // integrate at the old speed up to now
    c.seg_speed = chip_.cpu_speed(cpu);
    arm_exec_event(cpu);
  }
}

// ---------------------------------------------------------------------------
// Body API
// ---------------------------------------------------------------------------

namespace {
void check_single_request(const Task& t) {
  HPCS_CHECK_MSG(t.state() == TaskState::kRunnable,
                 "body API used outside TaskBody::step()");
}
}  // namespace

void Kernel::body_compute(Task& t, Work work) {
  check_single_request(t);
  HPCS_CHECK_MSG(work > 0.0, "compute segment must have positive work");
  t.req_ = Task::Req::kCompute;
  t.req_work_ = work;
}

void Kernel::body_block(Task& t) {
  check_single_request(t);
  t.req_ = Task::Req::kBlock;
}

void Kernel::body_sleep(Task& t, Duration d) {
  check_single_request(t);
  HPCS_CHECK_MSG(d >= Duration::zero(), "negative sleep");
  t.req_ = Task::Req::kSleep;
  t.req_sleep_ = d;
}

void Kernel::body_yield(Task& t) {
  check_single_request(t);
  t.req_ = Task::Req::kYield;
}

void Kernel::body_exit(Task& t) {
  check_single_request(t);
  t.req_ = Task::Req::kExit;
}

// ---------------------------------------------------------------------------
// Wakeups
// ---------------------------------------------------------------------------

void Kernel::wake(Task& t) {
  if (t.state_ != TaskState::kSleeping || t.woken_pending_) return;
  t.woken_pending_ = true;
  t.wake_time_ = now();
  ++t.nr_wakeups;
  const Duration cost = classes_[static_cast<std::size_t>(t.class_idx_)]->wakeup_cost();
  if (cost <= Duration::zero()) {
    do_wake(t);
  } else {
    Task* tp = &t;
    sim_->schedule_in(cost, [this, tp] { do_wake(*tp); });
  }
}

void Kernel::do_wake(Task& t) {
  if (t.state_ != TaskState::kSleeping) return;
  t.state_ = TaskState::kRunnable;
  if (trace_ != nullptr) trace_->on_state(now(), t, TaskState::kRunnable);
  HPCS_TRACEPOINT(obs_, obs::TpId::kTpWake, now(), t.cpu, t.pid(), 0);
  if (t.pinned_cpu != kInvalidCpu) t.cpu = t.pinned_cpu;
  enqueue_task(t, /*wakeup=*/true);
  maybe_preempt(t.cpu, t);
}

void Kernel::request_hw_prio(Task& t, p5::HwPrio prio) {
  if (t.hw_prio == prio) return;
  t.hw_prio = prio;
  if (trace_ != nullptr) trace_->on_hw_prio(now(), t, prio);
  HPCS_TRACEPOINT(obs_, obs::TpId::kTpHwPrio, now(), t.cpu, t.pid(),
                  static_cast<std::int64_t>(prio));
  if (cfg_.hw_prio_enabled && started_ && rq(t.cpu).curr == &t) {
    isa_.set_priority(t.cpu, prio, p5::Privilege::kSupervisor);
  }
}

// HPCS_HOT_END

// ---------------------------------------------------------------------------
// Syscalls
// ---------------------------------------------------------------------------

bool Kernel::sched_setscheduler(Task& t, Policy policy, int rt_prio) {
  if (policy == Policy::kIdle) return false;
  if (class_for(policy) == nullptr) return false;  // e.g. SCHED_HPC on a stock kernel
  if (rt_prio < 0 || rt_prio >= kRtPrioLevels) return false;

  Rq& r = rq(t.cpu);
  const bool running = (r.curr == &t);
  const bool queued = t.on_rq && !running;
  const int old_idx = t.class_idx_;

  if (queued) dequeue_task(t, false);
  if (running) --r.class_count[static_cast<std::size_t>(old_idx)];

  t.policy_ = policy;
  t.class_idx_ = class_index(policy);
  t.rt_prio = rt_prio;
  t.slice_left = Duration::zero();

  if (queued) enqueue_task(t, false);
  if (running) ++r.class_count[static_cast<std::size_t>(t.class_idx_)];
  if (queued || running) resched_cpu(t.cpu);
  return true;
}

bool Kernel::sched_setaffinity(Task& t, CpuId cpu) {
  if (cpu != kInvalidCpu && (cpu < 0 || cpu >= topo_.num_cpus())) return false;
  t.pinned_cpu = cpu;
  if (cpu == kInvalidCpu || t.cpu == cpu) return true;
  if (t.state_ == TaskState::kSleeping || t.state_ == TaskState::kExited) {
    t.cpu = cpu;
    return true;
  }
  Rq& r = rq(t.cpu);
  if (r.curr == &t) {
    // A running task migrates at its next wakeup (do_wake honors the pin).
    return true;
  }
  migrate(t, cpu);
  return true;
}

void Kernel::set_nice(Task& t, int nice) { t.nice = std::clamp(nice, -20, 19); }

// ---------------------------------------------------------------------------
// Tick + balancing
// ---------------------------------------------------------------------------

// HPCS_HOT_BEGIN — the tick is the highest-volume event in the simulator (one
// per CPU per simulated millisecond); the schedule_in fallback below captures
// only [this, cpu], which fits InplaceFunction's inline buffer. balance_pull
// runs on every new-idle switch as well as on balance ticks.
void Kernel::on_tick(CpuId cpu) {
  CpuState& c = cs(cpu);
  ++c.ticks;
  // Windowed-snapshot flush rides the tick (sim-time driven, so the series
  // is exactly as deterministic as the totals). Two compares when inactive.
  if (obs_ != nullptr) obs_->advance_window(now());
  Task* curr = c.rq.curr;
  if (curr != nullptr && curr != c.rq.idle) {
    flush_account(*curr);
    classes_[static_cast<std::size_t>(curr->class_idx_)]->task_tick(*this, c.rq, *curr);
  }
  if (cfg_.balance_interval_ticks > 0 && --c.balance_countdown == 0) {
    c.balance_countdown = cfg_.balance_interval_ticks;
    for (const auto& cls : classes_) {
      if (cls->wants_balance()) balance_pull(cpu, *cls);
    }
  }
  // Recurring tick: re-arm the firing event in place (no slot churn). This
  // is the highest-volume event in the simulator — one per CPU per 1 ms.
  if (!sim_->reschedule_in(c.tick_event, cfg_.tick)) {
    c.tick_event = sim_->schedule_in(cfg_.tick, [this, cpu] { on_tick(cpu); });
  }
  if (c.rq.need_resched) {
    c.rq.need_resched = false;
    resched_cpu(cpu);
  }
}

bool Kernel::balance_pull(CpuId cpu, SchedClass& cls) {
  const auto ci = static_cast<std::size_t>(cls.index());
  // steal_candidate only returns a queued task (runnable, not running): with
  // none on another CPU, which is almost every new-idle pass, nothing moves.
  const bool queued_elsewhere = std::any_of(cpus_.begin(), cpus_.end(), [&](const CpuState& o) {
    const int running = o.rq.curr->class_idx_ == cls.index() ? 1 : 0;
    return o.rq.cpu != cpu && o.rq.class_count[ci] > running;
  });
  if (!queued_elsewhere) return false;

  for (const Domain& dom : topo_.domains_for(cpu)) {
    // One pass: this CPU's group load and the first busiest other group.
    int my_load = -1;
    int busiest = -1;
    int busiest_load = -1;
    for (std::size_t g = 0; g < dom.groups.size(); ++g) {
      int load = 0;
      bool mine = false;
      for (CpuId c : dom.groups[g]) {
        load += rq(c).class_count[ci];
        mine = mine || c == cpu;
      }
      if (mine) {
        my_load = load;
      } else if (busiest < 0 || load > busiest_load) {
        busiest = static_cast<int>(g);
        busiest_load = load;
      }
    }
    // Pull only when moving one task strictly reduces the imbalance.
    if (my_load < 0 || busiest < 0 || busiest_load <= my_load + 1) continue;
    CpuId src = kInvalidCpu;
    int src_load = -1;
    for (CpuId c : dom.groups[static_cast<std::size_t>(busiest)]) {
      if (rq(c).class_count[ci] > src_load) {
        src_load = rq(c).class_count[ci];
        src = c;
      }
    }
    if (src == kInvalidCpu) continue;
    Task* cand = cls.steal_candidate(*this, rq(src));
    if (cand == nullptr) continue;
    if (cand->pinned_cpu != kInvalidCpu && cand->pinned_cpu != cpu) continue;
    HPCS_TRACEPOINT(obs_, obs::TpId::kTpBalancePull, now(), cpu, cand->pid(), src);
    migrate(*cand, cpu);
    ++balance_pulls_;
    return true;
  }
  return false;
}

void Kernel::migrate(Task& t, CpuId dst) {
  HPCS_CHECK(t.on_rq);
  HPCS_CHECK_MSG(rq(t.cpu).curr != &t, "cannot migrate a running task");
  dequeue_task(t, false);
  HPCS_TRACEPOINT(obs_, obs::TpId::kTpMigrate, now(), t.cpu, t.pid(), dst);
  t.cpu = dst;
  ++t.nr_migrations;
  ++migrations_;
  enqueue_task(t, false);
  maybe_preempt(dst, t);
}
// HPCS_HOT_END

}  // namespace hpcs::kern
