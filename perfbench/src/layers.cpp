#include "layers.h"

#include <cstring>

#include "common/rng.h"
#include "hpcsched/heuristics.h"
#include "hpcsched/mechanism.h"
#include "kernel/kernel.h"
#include "kernel/noise.h"
#include "power5/chip.h"
#include "simcore/simulator.h"
#include "simmpi/mpi_world.h"

namespace pb {

using namespace hpcs;

namespace {

template <typename T>
void mix(std::uint64_t& h, const T& v) {
  unsigned char b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));
  for (unsigned char c : b) {
    h ^= c;
    h *= 1099511628211ULL;
  }
}

// ---- decorators: forward every call, time the scheduling hooks ----

class TimedHeuristic final : public hpc::Heuristic {
 public:
  TimedHeuristic(std::unique_ptr<hpc::Heuristic> inner, Span& span)
      : inner_(std::move(inner)), span_(&span) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] double metric(const hpc::TaskIterStats& s,
                              const hpc::HpcTunables& tun) const override {
    SpanGuard g(*span_);
    return inner_->metric(s, tun);
  }

 private:
  std::unique_ptr<hpc::Heuristic> inner_;
  Span* span_;
};

class TimedMechanism final : public hpc::Mechanism {
 public:
  TimedMechanism(std::unique_ptr<hpc::Mechanism> inner, Span& span)
      : inner_(std::move(inner)), span_(&span) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  bool apply(kern::Kernel& k, kern::Task& t, int prio) override {
    SpanGuard g(*span_);
    return inner_->apply(k, t, prio);
  }
  [[nodiscard]] int read(const kern::Task& t) const override {
    SpanGuard g(*span_);
    return inner_->read(t);
  }

 private:
  std::unique_ptr<hpc::Mechanism> inner_;
  Span* span_;
};

// Configuration queries (name, owns, make_rq, wants_balance, wakeup_cost)
// forward untimed; the scheduling hooks are timed.
class TimedClass final : public kern::SchedClass {
 public:
  TimedClass(std::unique_ptr<hpc::HpcSchedClass> inner, Span& span)
      : inner_(std::move(inner)), span_(&span) {}

  [[nodiscard]] hpc::HpcSchedClass& inner() { return *inner_; }

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] bool owns(kern::Policy p) const override { return inner_->owns(p); }
  [[nodiscard]] std::unique_ptr<kern::ClassRq> make_rq() const override {
    return inner_->make_rq();
  }
  void enqueue(kern::Kernel& k, kern::Rq& rq, kern::Task& t, bool wakeup) override {
    SpanGuard g(*span_);
    inner_->enqueue(k, rq, t, wakeup);
  }
  void dequeue(kern::Kernel& k, kern::Rq& rq, kern::Task& t, bool sleep) override {
    SpanGuard g(*span_);
    inner_->dequeue(k, rq, t, sleep);
  }
  kern::Task* pick_next(kern::Kernel& k, kern::Rq& rq) override {
    SpanGuard g(*span_);
    return inner_->pick_next(k, rq);
  }
  void put_prev(kern::Kernel& k, kern::Rq& rq, kern::Task& t) override {
    SpanGuard g(*span_);
    inner_->put_prev(k, rq, t);
  }
  void task_tick(kern::Kernel& k, kern::Rq& rq, kern::Task& t) override {
    SpanGuard g(*span_);
    inner_->task_tick(k, rq, t);
  }
  [[nodiscard]] bool wakeup_preempt(kern::Kernel& k, kern::Rq& rq, kern::Task& curr,
                                    kern::Task& woken) override {
    SpanGuard g(*span_);
    return inner_->wakeup_preempt(k, rq, curr, woken);
  }
  void yield(kern::Kernel& k, kern::Rq& rq, kern::Task& t) override {
    SpanGuard g(*span_);
    inner_->yield(k, rq, t);
  }
  kern::Task* steal_candidate(kern::Kernel& k, kern::Rq& rq) override {
    SpanGuard g(*span_);
    return inner_->steal_candidate(k, rq);
  }
  [[nodiscard]] bool wants_balance() const override { return inner_->wants_balance(); }
  [[nodiscard]] Duration wakeup_cost() const override { return inner_->wakeup_cost(); }

 private:
  std::unique_ptr<hpc::HpcSchedClass> inner_;
  Span* span_;
};
HPCS_ASSERT_SCHED_CLASS(TimedClass);

class TimedProgram final : public mpi::RankProgram {
 public:
  TimedProgram(std::unique_ptr<mpi::RankProgram> inner, Span& span)
      : inner_(std::move(inner)), span_(&span) {}
  mpi::MpiOp next() override {
    SpanGuard g(*span_);
    return inner_->next();
  }

 private:
  std::unique_ptr<mpi::RankProgram> inner_;
  Span* span_;
};

}  // namespace

double ns_per_tick() {
  static const double k = [] {
    const Clock::time_point c0 = Clock::now();
    const std::uint64_t t0 = ticks();
    while (seconds_since(c0) < 0.02) {
    }
    const std::uint64_t t1 = ticks();
    return 1e9 * seconds_since(c0) / static_cast<double>(t1 - t0);
  }();
  return k;
}

double span_cost_ns() {
  constexpr int kN = 200000;
  Span s;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kN; ++i) SpanGuard g(s);
  const double total = seconds_since(t0);
  return s.calls == kN ? 1e9 * total / kN : 0.0;
}

std::uint64_t Digest::hash() const {
  std::uint64_t h = 14695981039346656037ULL;
  mix(h, exec_ns);
  for (double u : util_pct) mix(h, u);
  for (std::int64_t c : cpu_time_ns) mix(h, c);
  for (std::int64_t w : wakeups) mix(h, w);
  mix(h, ctx_switches);
  mix(h, migrations);
  mix(h, messages);
  mix(h, prio_changes);
  return h;
}

Digest digest_of(const analysis::RunResult& r) {
  Digest d;
  d.exec_ns = r.exec_time.ns();
  for (const analysis::TaskResult& t : r.ranks) {
    d.util_pct.push_back(t.util_pct);
    d.cpu_time_ns.push_back(t.cpu_time.ns());
    d.wakeups.push_back(t.wakeups);
  }
  d.ctx_switches = r.context_switches;
  d.migrations = r.migrations;
  d.messages = r.messages;
  d.prio_changes = r.hw_prio_changes;
  return d;
}

// ---- LayerSink ----

void LayerSink::on_switch(SimTime, CpuId cpu, const kern::Task*, const kern::Task* next) {
  ++events;
  curr_[static_cast<std::size_t>(cpu)] = next;
  const bool active = next != nullptr && next->policy() != kern::Policy::kIdle;
  chip_ops.push_back({static_cast<std::int8_t>(cpu), true, active,
                      static_cast<std::uint8_t>(active ? p5::to_int(next->hw_prio) : 0)});
}

void LayerSink::on_state(SimTime, const kern::Task&, kern::TaskState new_state) {
  ++events;
  if (new_state == kern::TaskState::kRunnable) ++wakeups;
}

void LayerSink::on_hw_prio(SimTime, const kern::Task& task, p5::HwPrio prio) {
  ++events;
  // Kernel::request_hw_prio writes the chip only for the running task.
  if (curr_[static_cast<std::size_t>(task.cpu)] == &task) {
    chip_ops.push_back({static_cast<std::int8_t>(task.cpu), false, true,
                        static_cast<std::uint8_t>(p5::to_int(prio))});
  }
}

void LayerSink::on_wakeup_latency(SimTime, const kern::Task&, Duration) { ++events; }

void LayerSink::on_iteration(SimTime, const kern::Task&, int, double, double) { ++events; }

ReplayResult replay_chip(const std::vector<ChipOp>& ops, const kern::KernelConfig& kcfg) {
  p5::Chip chip(kcfg.num_cores * kcfg.num_chips, kcfg.throughput);
  ReplayResult r;
  const Clock::time_point t0 = Clock::now();
  for (const ChipOp& op : ops) {
    const auto prio = static_cast<p5::HwPrio>(op.prio);
    if (op.is_switch) {
      chip.set_cpu_active(op.cpu, op.active);
      ++r.calls;
      if (op.active && kcfg.hw_prio_enabled && chip.cpu_priority(op.cpu) != prio) {
        chip.set_cpu_priority(op.cpu, prio);
        ++r.calls;
      }
    } else {
      chip.set_cpu_priority(op.cpu, prio);
      ++r.calls;
    }
    r.speed_sum += chip.cpu_speed(op.cpu);
    ++r.calls;
  }
  r.seconds = seconds_since(t0);
  return r;
}

// ---- the decorated reassembly of run_experiment ----

DecoratedRun run_decorated(const analysis::ExperimentConfig& cfg,
                           std::vector<std::unique_ptr<mpi::RankProgram>> programs) {
  using analysis::SchedMode;
  DecoratedRun out;
  LayerStats& st = out.stats;
  const Clock::time_point t0 = Clock::now();

  sim::Simulator simulator;
  kern::Kernel kernel(simulator, cfg.kernel);

  TimedClass* timed = nullptr;
  if (analysis::is_dynamic_mode(cfg.mode)) {
    hpc::HeuristicKind kind = hpc::HeuristicKind::kHybrid;
    if (cfg.mode == SchedMode::kUniform) kind = hpc::HeuristicKind::kUniform;
    if (cfg.mode == SchedMode::kAdaptive) kind = hpc::HeuristicKind::kAdaptive;
    std::unique_ptr<hpc::Mechanism> mech;
    if (cfg.kernel.hw_prio_enabled) {
      mech = std::make_unique<hpc::Power5Mechanism>();
    } else {
      mech = std::make_unique<hpc::NullMechanism>();
    }
    auto inner = std::make_unique<hpc::HpcSchedClass>(
        cfg.hpc, std::make_unique<TimedHeuristic>(hpc::make_heuristic(kind), st.heuristic),
        std::make_unique<TimedMechanism>(std::move(mech), st.mechanism));
    auto cls = std::make_unique<TimedClass>(std::move(inner), st.hpc_class);
    timed = cls.get();
    kernel.add_class_before_cfs(std::move(cls));
  }

  LayerSink sink(kernel.num_cpus());
  kernel.set_trace(&sink);
  kernel.start();
  // The kernel indexes the decorator; the inner class reads its own index().
  if (timed != nullptr) timed->inner().set_index(timed->index());

  Rng noise_rng(cfg.seed * 2654435761u + 17);
  if (cfg.enable_noise) kern::spawn_noise_daemons(kernel, cfg.noise, noise_rng);

  for (auto& p : programs) p = std::make_unique<TimedProgram>(std::move(p), st.next);
  mpi::MpiWorldConfig wc;
  wc.policy = analysis::is_dynamic_mode(cfg.mode) ? kern::Policy::kHpcRr : kern::Policy::kNormal;
  wc.placement = cfg.placement;
  if (cfg.mode == SchedMode::kStatic) wc.static_hw_prio = cfg.static_prios;
  wc.net = cfg.net;
  wc.seed = cfg.seed;
  mpi::MpiWorld world(kernel, wc, std::move(programs));
  world.start();

  const SimTime start = simulator.now();
  const Clock::time_point loop0 = Clock::now();
  mpi::run_to_completion(simulator, world, cfg.deadline);
  st.loop_s = seconds_since(loop0);
  kernel.set_trace(nullptr);

  Digest& d = out.digest;
  d.exec_ns = (world.finish_time() - start).ns();
  for (int r = 0; r < world.size(); ++r) {
    const kern::Task& t = world.task(r);
    d.util_pct.push_back(100.0 * t.cpu_utilization());
    d.cpu_time_ns.push_back(t.t_run.ns());
    d.wakeups.push_back(t.nr_wakeups);
    if (t.t_run + t.t_ready + t.t_sleep != t.exit_time - t.created) ++st.accounting_violations;
  }
  d.ctx_switches = kernel.context_switches();
  d.migrations = kernel.migrations();
  d.messages = world.messages_delivered();
  if (timed != nullptr) {
    d.prio_changes = timed->inner().priority_changes();
    st.iterations = timed->inner().iterations_observed();
  }

  st.prio_changes = d.prio_changes;
  st.ctx_switches = d.ctx_switches;
  st.migrations = d.migrations;
  st.balance_pulls = kernel.balance_pulls();
  st.messages = d.messages;
  st.sink_events = sink.events;
  st.wakeups = sink.wakeups;
  st.chip_ops = std::move(sink.chip_ops);
  st.run_s = seconds_since(t0);
  return out;
}

}  // namespace pb
