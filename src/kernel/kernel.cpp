#include "kernel/kernel.h"

#include <algorithm>

#include "common/check.h"
#include "kernel/cfs_class.h"
#include "kernel/idle_class.h"
#include "kernel/rt_class.h"
#include "obs/recorder.h"

namespace hpcs::kern {
namespace {

/// static_cast<std::int64_t>(std::ceil(q)) for 0 <= q < 2^63, without a
/// libm call: the truncation, plus one if it dropped a fraction. Exact:
/// every double at or above 2^53 is whole.
std::int64_t ceil_to_int(double q) {
  auto n = static_cast<std::int64_t>(q);
  if (static_cast<double>(n) < q) ++n;
  return n;
}

}  // namespace

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
    classes_.push_back(std::make_unique<O1Class>());
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
    if (classes_[i]->wants_balance()) balance_classes_.push_back(classes_[i].get());
    wakeup_cost_.push_back(classes_[i]->wakeup_cost());
  }
  queued_.assign(classes_.size(), 0);
  const int idle_idx = class_index(Policy::kIdle);
  const int n = cfg_.balance_interval_ticks;
  cpus_.resize(static_cast<std::size_t>(topo_.num_cpus()));
  for (CpuId cpu = 0; cpu < topo_.num_cpus(); ++cpu) {
    CpuState& c = cpus_[static_cast<std::size_t>(cpu)];
    c.rq.cpu = cpu;
    if (n > 0) c.next_balance = n - cpu % n;  // the first j >= 1 with (j + cpu) % n == 0
    for (const auto& cls : classes_) {
      c.rq.class_rqs.push_back(cls->make_rq());
      c.rq.class_count.push_back(0);
    }
    c.idle_task = std::make_unique<Task>(-(cpu + 1), "idle/" + std::to_string(cpu),
                                         Policy::kIdle);
    c.idle_task->class_idx_ = idle_idx;
    c.idle_task->cpu = cpu;
    c.rq.idle = c.idle_task.get();
    c.rq.curr = c.idle_task.get();
    --queued_[static_cast<std::size_t>(idle_idx)];  // running, counted by no class_count
    c.exec_timer = sim_->make_timer([this, cpu] { on_exec_event(cpu); });
    c.resched_timer = sim_->make_timer([this, cpu] { schedule_cpu(cpu); });
  }
  tick_origin_ = now();
  tick_index_ = 1;
  tick_timer_ = sim_->make_timer([this] { on_tick(); }, sim::Lane::kFirst);
  sim_->arm_at(tick_timer_, tick_time(1));
  chip_.set_listener(
      [](void* k, CoreId core) { static_cast<Kernel*>(k)->on_speed_change(core); }, this);
}

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
  Task* tp = t.get();
  t->wake_timer_ = sim_->make_timer([this, tp] { do_wake(*tp); });
  t->sleep_timer_ = sim_->make_timer([this, tp] { wake(*tp); });
  Task& ref = *t;
  tasks_.push_back(std::move(t));
  return ref;
}

void Kernel::start_task(Task& t) { wake(t); }

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

void Kernel::set_obs(obs::Recorder* rec) {
  // A recorder attached mid-run would miss every count before it.
  HPCS_CHECK_MSG(!started_ || rec == nullptr, "attach the obs recorder before Kernel::start()");
  obs_ = rec;
}

void Kernel::flush_account(Task& t) {
  replay_ticks(t.cpu);
  account_to(t, now());
}

void Kernel::account_to(Task& t, SimTime when) {
  if (t.state_ == TaskState::kExited) return;
  const Duration delta = when - t.acc_since_;
  t.acc_since_ = when;
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

// ---------------------------------------------------------------------------
// Run-queue plumbing
// ---------------------------------------------------------------------------

void Kernel::enqueue_task(Task& t, bool wakeup) {
  replay_ticks(t.cpu);
  Rq& r = rq(t.cpu);
  const int idx = t.class_idx_;
  classes_[static_cast<std::size_t>(idx)]->enqueue(*this, r, t, wakeup);
  t.on_rq = true;
  ++r.class_count[static_cast<std::size_t>(idx)];
  ++queued_[static_cast<std::size_t>(idx)];
  set_acc_state(t, AccState::kReady);
  check_dormant(t.cpu);
}

void Kernel::dequeue_task(Task& t, bool sleep) {
  // No check_dormant after: removing a task never makes ticks unreplayable.
  replay_ticks(t.cpu);
  Rq& r = rq(t.cpu);
  const int idx = t.class_idx_;
  classes_[static_cast<std::size_t>(idx)]->dequeue(*this, r, t, sleep);
  t.on_rq = false;
  --r.class_count[static_cast<std::size_t>(idx)];
  --queued_[static_cast<std::size_t>(idx)];
  HPCS_CHECK(r.class_count[static_cast<std::size_t>(idx)] >= 0);
}

void Kernel::maybe_preempt(CpuId cpu, Task& woken) {
  replay_ticks(cpu);  // wakeup_preempt may read curr's accounting
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
  if (!sim_->pending(c.resched_timer)) sim_->arm_in(c.resched_timer, Duration::zero());
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
  replay_ticks(cpu);
  CpuState& c = cs(cpu);
  Rq& r = c.rq;
  accrue_exec(c);
  stop_exec(c);

  Task* prev = r.curr;
  if (prev != nullptr && prev != r.idle && prev->state() == TaskState::kRunnable) {
    set_acc_state(*prev, AccState::kReady);
    classes_[static_cast<std::size_t>(prev->class_idx_)]->put_prev(*this, r, *prev);
  }

  Task* next = pick_next(r);
  if (next == r.idle) {
    // New-idle balancing: try to pull work before going idle (paper §IV-A).
    // A pull re-enters no schedule_cpu: it only arms this CPU's resched.
    for (SchedClass* cls : balance_classes_) {
      if (balance_pull(cpu, *cls)) break;
    }
    next = pick_next(r);
  }

  r.curr = next;
  r.need_resched = false;
  if (next != prev) {
    ++queued_[static_cast<std::size_t>(prev->class_idx_)];
    --queued_[static_cast<std::size_t>(next->class_idx_)];
    ++ctx_switches_;
    if (next != r.idle) ++next->nr_switches;
    if (trace_ != nullptr) trace_->on_switch(now(), cpu, prev, next);
    HPCS_TRACEPOINT(obs_, obs::TpId::kTpSchedSwitch, now());
    if (obs_ != nullptr) obs_->observe_runq_depth(now(), r.total_runnable());
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
      if (obs_ != nullptr) obs_->observe_wakeup_latency_us(now(), lat.us());
    }
    chip_.set_cpu_active(cpu, true);
    if (cfg_.hw_prio_enabled && chip_.cpu_priority(cpu) != next->hw_prio) {
      // The context switch path issues the or-nop that restores the incoming
      // task's hardware priority (Mechanism, paper §IV-C).
      isa_.set_priority(cpu, next->hw_prio, p5::Privilege::kSupervisor);
    }
  } else {
    chip_.set_cpu_active(cpu, false);
  }
  start_exec(c);
  check_dormant(cpu);
}

// ---------------------------------------------------------------------------
// Execution engine
// ---------------------------------------------------------------------------

void Kernel::accrue_exec(CpuState& c) {
  if (!c.exec_active) return;
  Task* t = c.rq.curr;
  HPCS_CHECK(t != nullptr && t != c.rq.idle);
  const Duration delta = now() - c.seg_start;
  c.seg_start = now();
  if (delta <= Duration::zero()) return;
  t->remaining -= static_cast<double>(delta.ns()) * c.seg_speed;
  if (t->remaining < 0.0) t->remaining = 0.0;
}

void Kernel::stop_exec(CpuState& c) {
  c.exec_active = false;
  sim_->cancel(c.exec_timer);
}

void Kernel::start_exec(CpuState& c) {
  Task* t = c.rq.curr;
  if (t == nullptr || t == c.rq.idle) return;
  c.exec_active = true;
  c.seg_start = now();
  c.seg_speed = chip_.cpu_speed(c.rq.cpu);
  arm_exec_event(c);
}

void Kernel::arm_exec_event(CpuState& c) {
  Task* t = c.rq.curr;
  HPCS_CHECK(t != nullptr && t != c.rq.idle);
  Duration delay = Duration::zero();
  if (t->remaining > 0.0) {
    if (c.seg_speed <= 0.0) {
      // Context stalled; re-armed on speed change.
      sim_->cancel(c.exec_timer);
      return;
    }
    delay = Duration(ceil_to_int(t->remaining / c.seg_speed));
  }
  sim_->arm_in(c.exec_timer, delay);
}

void Kernel::on_exec_event(CpuId cpu) {
  // The body and the block/yield/exit paths below touch curr's accounting
  // and class state.
  replay_ticks(cpu);
  CpuState& c = cs(cpu);
  HPCS_CHECK(c.exec_active);
  accrue_exec(c);
  Task* t = c.rq.curr;
  HPCS_CHECK(t != nullptr && t != c.rq.idle);
  if (t->remaining > 0.5) {
    // Rounding residue: finish the tail of the segment.
    arm_exec_event(c);
    return;
  }
  t->remaining = 0.0;

  HPCS_CHECK_MSG(t->body_ != nullptr, "task reached an interaction point without a body");
  t->req_ = Task::Req::kNone;
  t->body_->step(*this, *t);

  switch (t->req_) {
    case Task::Req::kCompute:
      t->remaining = t->req_work_;
      arm_exec_event(c);
      break;
    case Task::Req::kBlock:
    case Task::Req::kSleep: {
      set_acc_state(*t, AccState::kSleep);
      t->state_ = TaskState::kSleeping;
      if (trace_ != nullptr) trace_->on_state(now(), *t, TaskState::kSleeping);
      dequeue_task(*t, true);
      if (t->req_ == Task::Req::kSleep) sim_->arm_in(t->sleep_timer_, t->req_sleep_);
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
    accrue_exec(c);  // integrate at the old speed up to now
    c.seg_speed = chip_.cpu_speed(cpu);
    arm_exec_event(c);
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
  const Duration cost = wakeup_cost_[static_cast<std::size_t>(t.class_idx_)];
  if (cost <= Duration::zero()) {
    do_wake(t);
  } else {
    sim_->arm_in(t.wake_timer_, cost);
  }
}

void Kernel::do_wake(Task& t) {
  if (t.state_ != TaskState::kSleeping) return;
  t.state_ = TaskState::kRunnable;
  if (trace_ != nullptr) trace_->on_state(now(), t, TaskState::kRunnable);
  HPCS_TRACEPOINT(obs_, obs::TpId::kTpWake, now());
  if (t.pinned_cpu != kInvalidCpu) t.cpu = t.pinned_cpu;
  enqueue_task(t, /*wakeup=*/true);
  maybe_preempt(t.cpu, t);
}

void Kernel::request_hw_prio(Task& t, p5::HwPrio prio) {
  if (t.hw_prio == prio) return;
  t.hw_prio = prio;
  if (trace_ != nullptr) trace_->on_hw_prio(now(), t, prio);
  HPCS_TRACEPOINT(obs_, obs::TpId::kTpHwPrio, now());
  if (cfg_.hw_prio_enabled && started_ && rq(t.cpu).curr == &t) {
    isa_.set_priority(t.cpu, prio, p5::Privilege::kSupervisor);
  }
}

// ---------------------------------------------------------------------------
// Syscalls
// ---------------------------------------------------------------------------

bool Kernel::sched_setscheduler(Task& t, Policy policy, int rt_prio) {
  if (policy == Policy::kIdle) return false;
  if (class_for(policy) == nullptr) return false;  // e.g. SCHED_HPC on a stock kernel
  if (rt_prio < 0 || rt_prio >= kRtPrioLevels) return false;

  replay_ticks(t.cpu);
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
  check_dormant(t.cpu);
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

void Kernel::set_nice(Task& t, int nice) {
  replay_ticks(t.cpu);  // past ticks accrue vruntime at the old weight
  t.nice = std::clamp(nice, -20, 19);
  check_dormant(t.cpu);
}

// ---------------------------------------------------------------------------
// Tick + balancing
// ---------------------------------------------------------------------------

// The tick is the highest-volume event in the simulator (one per CPU per
// simulated millisecond, run or replayed); balance_pull runs on every
// new-idle switch as well as on balance ticks.

// One event serves every CPU: it runs tick_cpu for the CPUs that are due, in
// CPU order, then re-arms itself in place for the next tick any CPU needs.
void Kernel::on_tick() {
  for (CpuId cpu = 0; cpu < topo_.num_cpus(); ++cpu) {
    tick_cursor_ = cpu;
    const CpuState& c = cpus_[static_cast<std::size_t>(cpu)];
    if (!c.dormant || c.next_balance == tick_index_) tick_cpu(cpu);
  }
  tick_cursor_ = kNoTickCursor;
  tick_index_ = next_tick_index();
  sim_->arm_at(tick_timer_, tick_time(tick_index_));
}

void Kernel::tick_cpu(CpuId cpu) {
  CpuState& c = cs(cpu);
  replay_to(c, tick_index_ - 1);  // a dormant CPU at its balance boundary
  c.ticks = tick_index_;
  ++ticks_run_;
  Task* curr = c.rq.curr;
  if (curr != nullptr && curr != c.rq.idle) {
    account_to(*curr, now());
    classes_[static_cast<std::size_t>(curr->class_idx_)]->task_tick(*this, c.rq, *curr);
  }
  // Every tick index of an awake CPU runs, and next_tick_index() stops at
  // each dormant CPU's next balance tick, so no balance tick is passed over.
  HPCS_CHECK(c.next_balance >= tick_index_);
  if (c.next_balance == tick_index_) {
    c.next_balance += cfg_.balance_interval_ticks;
    for (SchedClass* cls : balance_classes_) balance_pull(cpu, *cls);
  }
  if (c.rq.need_resched) {
    c.rq.need_resched = false;
    resched_cpu(cpu);
  }
  // Going dormant: the ticks to come can be replayed exactly until a kernel
  // entry changes what they would do (check_dormant).
  c.dormant = !cfg_.ticked_reference && !sim_->pending(c.resched_timer) && replayable(c);
}

std::int64_t Kernel::next_tick_index() const {
  // With nothing due the event still fires now and then, so the queue never
  // drains while a kernel runs (Simulator::run() then ends at its deadline).
  constexpr std::int64_t kMaxTickGap = 1024;
  const std::int64_t i = tick_index_;
  std::int64_t next = i + kMaxTickGap;
  for (const CpuState& c : cpus_) {
    if (!c.dormant) return i + 1;
    // A dormant CPU still runs its balance ticks; tick_cpu moved each one
    // due at i on, so every next_balance is past i.
    next = std::min(next, c.next_balance);
  }
  return next;
}

bool Kernel::replayable(const CpuState& c) const {
  // Idle: a tick only counts. One runnable task of its class at nice 0: a
  // tick only accounts it and calls task_tick, which then reads no now() and
  // sets no need_resched (the SchedClass::task_tick replay contract). A
  // count of 0 is a running task being switched out in this very event.
  const Task* curr = c.rq.curr;
  return curr == c.rq.idle ||
         (curr->nice == 0 && c.rq.class_count[static_cast<std::size_t>(curr->class_idx_)] <= 1);
}

void Kernel::replay_dormant(CpuState& c) {
  // Every tick at or before now() has happened: ticks fire first at their
  // instant. Inside the tick event, CPUs after the one ticking take the tick
  // at now() later in the same event.
  std::int64_t target = (now() - tick_origin_).ns() / cfg_.tick.ns();
  if (c.rq.cpu > tick_cursor_) --target;
  replay_to(c, target);
}

void Kernel::replay_to(CpuState& c, std::int64_t target) {
  if (c.ticks >= target) return;
  Task* curr = c.rq.curr;
  if (curr != c.rq.idle) {
    // One flush to the last tick equals one per tick: at nice 0 the vruntime
    // delta is the run delta, and integer ns add up exactly.
    HPCS_CHECK(curr->nice == 0);
    account_to(*curr, tick_time(target));
    classes_[static_cast<std::size_t>(curr->class_idx_)]->replay_task_ticks(*this, c.rq, *curr,
                                                                             target - c.ticks);
    HPCS_CHECK_MSG(!c.rq.need_resched,
                   "task_tick set need_resched on a replayed tick (SchedClass::task_tick)");
  }
  ticks_replayed_ += target - c.ticks;
  c.ticks = target;
}

void Kernel::wake_from_dormant(CpuState& c) {
  // The next tick would do more than replay can: tick again from the next
  // one. Inside the tick event the CPU loop and the re-arm see the change.
  c.dormant = false;
  const std::int64_t next = c.ticks + 1;
  if (tick_cursor_ != kNoTickCursor || next >= tick_index_) return;
  tick_index_ = next;
  sim_->arm_at(tick_timer_, tick_time(next));
}

bool Kernel::balance_pull(CpuId cpu, SchedClass& cls) {
  const auto ci = static_cast<std::size_t>(cls.index());
  // steal_candidate only returns a queued task (runnable, not running): with
  // none on another CPU, which is almost every new-idle pass, nothing moves.
  // Every other CPU holds class_count >= its running task of the class (only
  // the CPU switching now can be one below), so their queued tasks are the
  // class total minus this CPU's.
  const Rq& here = cs(cpu).rq;
  const int queued_here = here.class_count[ci] - (here.curr->class_idx_ == cls.index() ? 1 : 0);
  if (queued_[ci] - queued_here <= 0) return false;

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
    HPCS_TRACEPOINT(obs_, obs::TpId::kTpBalancePull, now());
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
  HPCS_TRACEPOINT(obs_, obs::TpId::kTpMigrate, now());
  t.cpu = dst;
  ++t.nr_migrations;
  ++migrations_;
  enqueue_task(t, false);
  maybe_preempt(dst, t);
}

}  // namespace hpcs::kern
