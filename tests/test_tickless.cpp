// Ticked == tickless differential. The kernel lets a CPU whose ticks only
// advance replayable state skip them and replays them when next touched;
// KernelConfig::ticked_reference runs every tick instead. Every scenario runs
// in both modes, and the RunResults (with the window series) must be equal
// once the rows that count the saved work are dropped: the sim.*
// event-queue counters and kern.ticks / kern.ticks_replayed.
//
// Scenarios: every paper point at reduced iteration counts, and seeded random
// mixes with nice != 0, SCHED_RR/FIFO, the O(1) class, HPC RR and FIFO,
// sched_setscheduler / sched_setaffinity / nice / hardware-priority churn,
// windows on and balance_interval_ticks = 0.

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/paper_experiments.h"
#include "common/rng.h"
#include "hpcsched/hpcsched.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using analysis::RunResult;
using analysis::SchedMode;
using kern::Policy;

/// The run without the rows that legitimately differ between modes. They
/// are end-of-run totals, so no window column holds them.
RunResult& without_saved_work(RunResult& r) {
  std::erase_if(r.metrics.metrics, [](const obs::MetricValue& v) {
    return v.name.starts_with("sim.") || v.name.starts_with("kern.ticks");
  });
  return r;
}

std::int64_t count_of(const RunResult& r, const char* name) {
  const obs::MetricValue* v = r.metrics.find(name);
  return v != nullptr ? v->count : -1;
}

// ---------------------------------------------------------------------------
// Paper points
// ---------------------------------------------------------------------------

struct PaperPoint {
  const char* name;
  SchedMode mode;
};

RunResult run_paper_point(const PaperPoint& p, bool ticked) {
  obs::ObsConfig oc;
  oc.enabled = true;
  oc.window_ns = 500'000'000;
  analysis::ExperimentConfig cfg = analysis::paper_defaults(p.mode, 7, false, oc);
  cfg.kernel.ticked_reference = ticked;
  const std::string table = p.name;
  if (table == "metbench") {
    auto e = analysis::MetBenchExperiment::paper();
    e.workload.iterations = 6;
    if (p.mode == SchedMode::kStatic) cfg.static_prios = e.static_prios;
    return analysis::run_experiment(cfg, wl::make_metbench(e.workload));
  }
  if (table == "metbenchvar") {
    auto e = analysis::MetBenchVarExperiment::paper();
    e.workload.iterations = 9;
    e.workload.k = 3;
    if (p.mode == SchedMode::kStatic) cfg.static_prios = e.static_prios;
    return analysis::run_experiment(cfg, wl::make_metbenchvar(e.workload));
  }
  if (table == "btmz") {
    auto e = analysis::BtMzExperiment::paper();
    e.workload.iterations = 20;
    cfg.placement = {0, 2, 3, 1};
    if (p.mode == SchedMode::kStatic) cfg.static_prios = e.static_prios;
    return analysis::run_experiment(cfg, wl::make_btmz(e.workload));
  }
  auto e = analysis::SiestaExperiment::paper();
  e.workload.microiters = 2000;
  return analysis::run_experiment(cfg, wl::make_siesta(e.workload));
}

class TicklessPaper : public ::testing::TestWithParam<PaperPoint> {};

TEST_P(TicklessPaper, SameBytesAsTicked) {
  RunResult ticked = run_paper_point(GetParam(), true);
  RunResult tickless = run_paper_point(GetParam(), false);
  EXPECT_EQ(count_of(ticked, "kern.ticks_replayed"), 0);
  EXPECT_GT(count_of(tickless, "kern.ticks_replayed"), 0);
  EXPECT_LT(count_of(tickless, "sim.events_executed"), count_of(ticked, "sim.events_executed"));
  ASSERT_GT(ticked.metrics.windows.samples.size(), 3u);
  EXPECT_TRUE(without_saved_work(ticked) == without_saved_work(tickless));
}

INSTANTIATE_TEST_SUITE_P(
    Points, TicklessPaper,
    ::testing::Values(PaperPoint{"metbench", SchedMode::kBaselineCfs},
                      PaperPoint{"metbench", SchedMode::kStatic},
                      PaperPoint{"metbench", SchedMode::kUniform},
                      PaperPoint{"metbench", SchedMode::kAdaptive},
                      PaperPoint{"metbenchvar", SchedMode::kBaselineCfs},
                      PaperPoint{"metbenchvar", SchedMode::kStatic},
                      PaperPoint{"metbenchvar", SchedMode::kUniform},
                      PaperPoint{"metbenchvar", SchedMode::kAdaptive},
                      PaperPoint{"btmz", SchedMode::kBaselineCfs},
                      PaperPoint{"btmz", SchedMode::kStatic},
                      PaperPoint{"btmz", SchedMode::kUniform},
                      PaperPoint{"btmz", SchedMode::kAdaptive},
                      PaperPoint{"siesta", SchedMode::kBaselineCfs},
                      PaperPoint{"siesta", SchedMode::kUniform},
                      PaperPoint{"siesta", SchedMode::kAdaptive}),
    [](const ::testing::TestParamInfo<PaperPoint>& point) {
      return std::string(point.param.name) + "_" + analysis::sched_mode_name(point.param.mode);
    });

// ---------------------------------------------------------------------------
// Seeded random scenarios
// ---------------------------------------------------------------------------

/// Scheduler state of `tasks` that RunResult does not carry (flushed first).
std::string task_digest(kern::Kernel& k, const std::vector<kern::Task*>& tasks) {
  std::ostringstream st;
  for (kern::Task* t : tasks) {
    k.flush_account(*t);
    st << t->name() << ' ' << t->t_run.ns() << ' ' << t->t_ready.ns() << ' ' << t->t_sleep.ns()
       << ' ' << t->vruntime.ns() << ' ' << t->slice_left.ns() << ' ' << t->nr_switches << ' '
       << t->nr_migrations << ' ' << t->cpu << ' ' << static_cast<int>(t->state()) << ' '
       << t->exit_time.ns() << '\n';
  }
  return st.str();
}

struct ScenarioRun {
  RunResult result;
  std::string task_state;  ///< per-task scheduler state RunResult does not carry
};

ScenarioRun run_scenario(std::uint64_t seed, bool ticked) {
  Rng rng(seed);
  sim::Simulator s;
  kern::KernelConfig kc;
  kc.ticked_reference = ticked;
  kc.fair_scheduler =
      rng.uniform() < 0.3 ? kern::FairScheduler::kO1 : kern::FairScheduler::kCfs;
  // Intervals of 1..3 ticks put two CPUs' balance ticks on one instant.
  const double balance = rng.uniform();
  kc.balance_interval_ticks = balance < 0.25  ? 0
                              : balance < 0.5 ? static_cast<int>(rng.uniform_int(1, 3))
                                              : static_cast<int>(rng.uniform_int(4, 64));
  kern::Kernel k(s, kc);
  hpc::HpcSchedConfig hc;
  hc.heuristic = rng.uniform() < 0.5 ? hpc::HeuristicKind::kUniform : hpc::HeuristicKind::kAdaptive;
  hc.tunables.rr_slice = Duration::milliseconds(rng.uniform_int(2, 30));
  auto& hpc_cls = hpc::install_hpcsched(k, hc);

  obs::ObsConfig oc;
  oc.enabled = true;
  const bool windows = rng.uniform() < 0.7;
  if (windows) oc.window_ns = rng.uniform_int(3'000'000, 40'000'000);
  obs::Recorder rec(oc);
  k.set_obs(&rec);
  k.start();

  constexpr Policy kPolicies[] = {Policy::kNormal, Policy::kBatch, Policy::kRr,
                                  Policy::kFifo,   Policy::kHpcRr, Policy::kHpcFifo};
  auto random_policy = [&rng, &kPolicies] {
    const double dice = rng.uniform();
    return kPolicies[dice < 0.4 ? 0 : static_cast<std::size_t>(rng.uniform_int(1, 5))];
  };
  std::vector<kern::Task*> all;
  const int n = static_cast<int>(rng.uniform_int(1, 8));
  for (int i = 0; i < n; ++i) {
    const Policy policy = random_policy();
    std::unique_ptr<kern::TaskBody> body;
    const double kind = rng.uniform();
    if (kind < 0.4) {
      std::vector<Act> acts;
      const int segs = static_cast<int>(rng.uniform_int(1, 8));
      for (int g = 0; g < segs; ++g) {
        acts.push_back(Act::compute(rng.uniform(0.2e6, 60.0e6)));
        const double next = rng.uniform();
        if (next < 0.3) {
          acts.push_back(Act::sleep(Duration(rng.uniform_int(100'000, 20'000'000))));
        } else if (next < 0.4) {
          acts.push_back(Act::yield());
        }
      }
      body = std::make_unique<ScriptBody>(std::move(acts));
    } else if (kind < 0.7) {
      body = std::make_unique<PeriodicBody>(rng.uniform(0.05e6, 8.0e6),
                                            Duration(rng.uniform_int(200'000, 15'000'000)));
    } else {
      body = std::make_unique<HogBody>(rng.uniform(0.3e6, 5.0e6));
    }
    auto& t = k.create_task("t" + std::to_string(i), std::move(body), policy,
                            static_cast<CpuId>(rng.uniform_int(0, 3)));
    if (policy == Policy::kRr || policy == Policy::kFifo) {
      k.sched_setscheduler(t, policy, static_cast<int>(rng.uniform_int(0, 99)));
    }
    if (rng.uniform() < 0.3) k.set_nice(t, static_cast<int>(rng.uniform_int(-10, 10)));
    if (rng.uniform() < 0.5) k.sched_setaffinity(t, static_cast<CpuId>(rng.uniform_int(0, 3)));
    k.start_task(t);
    all.push_back(&t);
  }

  // Churn while the mix runs, at random instants (some on tick boundaries).
  const int churn = static_cast<int>(rng.uniform_int(5, 40));
  for (int j = 0; j < churn; ++j) {
    std::int64_t at = rng.uniform_int(100'000, 250'000'000);
    if (rng.uniform() < 0.3) at -= at % 1'000'000;
    kern::Task* victim =
        all[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
    const double what = rng.uniform();
    const CpuId cpu = static_cast<CpuId>(rng.uniform_int(-1, 3));
    const Policy policy = random_policy();
    const int value = static_cast<int>(rng.uniform_int(-10, 10));
    s.schedule_at(SimTime(at), [&k, victim, what, cpu, policy, value] {
      if (victim->exited()) return;
      if (what < 0.35) {
        k.sched_setaffinity(*victim, cpu);
      } else if (what < 0.65) {
        k.sched_setscheduler(*victim, policy, value + 10);
      } else if (what < 0.9) {
        k.set_nice(*victim, value);
      } else {
        k.request_hw_prio(*victim, p5::hw_prio_from_int(1 + (value + 10) % 6));
      }
    });
  }

  const SimTime end = SimTime(300'000'000);
  s.run(end);

  ScenarioRun out;
  out.task_state = task_digest(k, all);
  RunResult& r = out.result;
  for (kern::Task* t : all) {
    analysis::TaskResult tr;
    tr.name = t->name();
    tr.pid = t->pid();
    tr.util_pct = 100.0 * t->cpu_utilization();
    tr.final_hw_prio = p5::to_int(t->hw_prio);
    tr.cpu_time = t->t_run;
    tr.wakeups = t->nr_wakeups;
    tr.avg_wakeup_latency_us = t->wakeup_latency_us.mean();
    if (const auto* is = hpc_cls.tracker().stats(t->pid())) tr.iterations = is->total_iterations;
    r.ranks.push_back(tr);
  }
  r.exec_time = k.now() - SimTime::zero();
  r.avg_wakeup_latency_us = k.wakeup_latency_us().mean();
  r.context_switches = k.context_switches();
  r.migrations = k.migrations();
  r.hw_prio_changes = hpc_cls.priority_changes();
  r.hpc_history_resets = hpc_cls.history_resets();
  r.metrics =
      rec.snapshot(k.now(), {.ticks = k.ticks_run(), .ticks_replayed = k.ticks_replayed()});
  k.set_obs(nullptr);
  return out;
}

TEST(TicklessRandom, SameBytesAsTicked) {
  std::int64_t replayed = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    ScenarioRun ticked = run_scenario(seed, true);
    ScenarioRun tickless = run_scenario(seed, false);
    EXPECT_EQ(count_of(ticked.result, "kern.ticks_replayed"), 0) << "seed " << seed;
    replayed += count_of(tickless.result, "kern.ticks_replayed");
    if (ticked.result.metrics.windows.enabled()) {
      ASSERT_GT(ticked.result.metrics.windows.samples.size(), 3u) << "seed " << seed;
    }
    EXPECT_EQ(ticked.task_state, tickless.task_state) << "seed " << seed;
    EXPECT_TRUE(without_saved_work(ticked.result) == without_saved_work(tickless.result))
        << "seed " << seed;
  }
  EXPECT_GT(replayed, 0);
}

// A CPU pulls from a dormant higher-numbered CPU at a tick both balance on
// (interval 1): the victim replays only through the previous tick, then
// takes this one later in the same tick event. The HPC RR hog's slice
// would show a tick taken twice.
std::string run_pull_from_dormant(bool ticked) {
  sim::Simulator s;
  kern::KernelConfig kc;
  kc.ticked_reference = ticked;
  kc.balance_interval_ticks = 1;
  kern::Kernel k(s, kc);
  hpc::HpcSchedConfig hc;
  hc.tunables.rr_slice = Duration::milliseconds(7);
  hpc::install_hpcsched(k, hc);
  k.start();
  auto& hog = k.create_task("hpc", std::make_unique<HogBody>(), Policy::kHpcRr, 3);
  k.sched_setaffinity(hog, 3);
  std::vector<kern::Task*> tasks = {&hog};
  for (const char* name : {"cfs_a", "cfs_b"}) {
    tasks.push_back(&k.create_task(
        name, std::make_unique<PeriodicBody>(0.3e6, Duration::microseconds(2500)),
        Policy::kNormal, 3));
  }
  for (kern::Task* t : tasks) k.start_task(*t);
  // Pinned to CPU 3, the CFS tasks wake there and queue behind the hog;
  // unpinned, the next balance tick of an idle CPU pulls one away (the
  // balancer moves a task only when the busiest group leads by two).
  for (int j = 0; j < 20; ++j) {
    s.schedule_at(SimTime(std::int64_t{j} * 10'000'000 + 300'000), [&k, &tasks, j] {
      for (std::size_t i = 1; i < tasks.size(); ++i) {
        k.sched_setaffinity(*tasks[i], j % 2 == 0 ? 3 : kInvalidCpu);
      }
    });
  }
  s.run(SimTime(200'000'000));
  EXPECT_GT(k.migrations(), 5);
  return task_digest(k, tasks) + std::to_string(k.context_switches());
}

TEST(TicklessShapes, PullFromDormantHigherCpuAtSharedBalanceTick) {
  EXPECT_EQ(run_pull_from_dormant(true), run_pull_from_dormant(false));
}

}  // namespace
}  // namespace hpcs::test
