// Event-loop and parallel-engine micro benchmark. Measures:
//  1. events/sec on the event-queue hot patterns:
//       - recurring per-CPU ticks: timers re-armed from their own callback
//         (4 CPUs: the paper machine's near-empty queue; 64 CPUs + 16k
//         sparse background timers: a deep queue no paper workload builds)
//       - one-shot events with a 32-byte capture (simmpi send-style; these
//         exceed std::function's inline buffer — InplaceFunction keeps them
//         allocation-free)
//       - timeout churn: schedule a fat-capture guard, cancel before firing
//       - same-instant bursts (FIFO dispatch of one timestamp)
//       - self-re-arming timers with periods from 192 ns to 32 ms
//       - mixed periodic ticks + sparse far-future timeouts (the kernel's
//         real population shape)
//       - sparse horizon: a few dozen ms-scale timers and nothing else
//     Each scenario runs three times and is gated on its best rate: a busy
//     host slows a run down, it never speeds one up.
//  2. an 8-run MetBench batch run serially (--jobs 1) and at --jobs N, and
//     a field-by-field comparison of the two batches' RunResults (the
//     engine's bit-identical contract). The batch is too short to time the
//     engine; perfbench's paper_sweep measures its speed end to end.
// Exits 1, after one FAIL line per miss, when a scenario's best rate is
// below its events/sec floor, and when the two batches differ. Flags:
// --jobs N for the parallel leg.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "analysis/paper_experiments.h"
#include "bench_common.h"
#include "exp/parallel_runner.h"
#include "simcore/simulator.h"

using namespace hpcs;

namespace {

double now_s() {
  // Bench timing harness: measuring the simulator from outside is the one
  // legitimate wall-clock read (simulation code itself must use SimTime).
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Recurring per-CPU 1 ms ticks, re-armed in-callback — the simulator's
/// highest-volume pattern. `cpus` periodic timers; `background` far-future
/// one-shots sit in the queue the whole time (they model the sparse
/// timeout/snooze population that forces a heap to do log(n) work per tick).
double bench_tick_loop(int cpus, int background) {
  sim::Simulator s;
  struct Ctx {
    sim::Simulator* s;
    sim::Timer t;
  };
  std::vector<sim::EventHandle> bg;
  bg.reserve(static_cast<std::size_t>(background));
  for (int i = 0; i < background; ++i) {
    bg.push_back(s.schedule_in(Duration(1'000'000'000'000LL + i), [] { std::abort(); }));
  }
  std::vector<Ctx> ctx(static_cast<std::size_t>(cpus));
  for (int i = 0; i < cpus; ++i) {
    auto& c = ctx[static_cast<std::size_t>(i)];
    c.s = &s;
    Ctx* p = &c;
    c.t = s.make_timer([p] { p->s->arm_in(p->t, Duration::milliseconds(1)); });
    s.arm_in(c.t, Duration::milliseconds(1));
  }
  const double t0 = now_s();
  const std::uint64_t target = 6'000'000;
  while (s.events_executed() < target) s.step();
  return double(s.events_executed()) / (now_s() - t0);
}

double bench_big_capture() {
  sim::EventQueue q;
  struct Payload {
    std::uint64_t a, b, c, d;
  };
  std::uint64_t sink = 0;
  const std::uint64_t kBatches = 60'000;
  const int kBatch = 64;
  std::int64_t t = 0;
  const double t0 = now_s();
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      Payload p{b, std::uint64_t(i), b ^ std::uint64_t(i), b + std::uint64_t(i)};
      q.schedule(SimTime(t + i), [p, &sink] { sink += p.a + p.d; });
    }
    while (!q.empty()) q.pop_and_run();
    t += kBatch;
  }
  const double rate = double(kBatches * kBatch) / (now_s() - t0);
  if (sink == 0) std::abort();
  return rate;
}

double bench_cancel_churn() {
  sim::EventQueue q;
  struct Payload {
    std::uint64_t a, b, c, d;
  };
  std::uint64_t sink = 0;
  const std::uint64_t kIters = 4'000'000;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    Payload p{i, i + 1, i + 2, i + 3};
    auto h = q.schedule(SimTime(std::int64_t(i + 1000)), [p, &sink] { sink += p.b; });
    if (!q.cancel(h)) std::abort();
    if ((i & 63) == 63) {
      // Dispatch now and then, as a real run loop would.
      q.schedule(SimTime(std::int64_t(i + 1)), [&sink] { ++sink; });
      q.pop_and_run();
    }
  }
  return double(kIters) / (now_s() - t0);
}

/// Bursts of events sharing one timestamp: every pop ties on `when` and is
/// decided by the insertion sequence.
double bench_same_tick_burst() {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  const std::uint64_t kBursts = 20'000;
  const int kBurst = 192;
  std::int64_t t = 0;
  const double t0 = now_s();
  for (std::uint64_t b = 0; b < kBursts; ++b) {
    for (int i = 0; i < kBurst; ++i) {
      q.schedule(SimTime(t), [&sink] { ++sink; });
    }
    while (!q.empty()) q.pop_and_run();
    t += 4096;
  }
  const double rate = double(kBursts * std::uint64_t(kBurst)) / (now_s() - t0);
  if (sink != kBursts * std::uint64_t(kBurst)) std::abort();
  return rate;
}

/// Self-re-arming timers whose periods span five orders of magnitude, so
/// every re-arm sifts to a different depth of the heap.
double bench_far_future_cascade() {
  sim::EventQueue q;
  struct Ctx {
    sim::EventQueue* q;
    sim::Timer t;
    std::int64_t when;
    std::int64_t period;
  };
  // Periods: 192 ns, 12 us, 0.8 ms and 32 ms.
  constexpr std::int64_t kPeriods[] = {192, 12'288, 786'432, 33'554'432};
  constexpr int kTimersPerBand = 64;
  std::vector<Ctx> ctx(4 * kTimersPerBand);
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    Ctx* c = &ctx[i];
    c->q = &q;
    c->period = kPeriods[i % 4];
    c->when = c->period + std::int64_t(i);
    c->t = q.make_timer([c] {
      c->when += c->period;
      c->q->arm(c->t, SimTime(c->when));
    });
    q.arm(c->t, SimTime(c->when));
  }
  const double t0 = now_s();
  const std::uint64_t target = 4'000'000;
  std::uint64_t fired = 0;
  while (fired < target) {
    q.pop_and_run();
    ++fired;
  }
  return double(fired) / (now_s() - t0);
}

/// The kernel's real queue shape: a band of periodic millisecond ticks plus
/// a sparse population of long timeouts that almost never fire but must be
/// stepped over (or around) on every dispatch.
double bench_mixed_periodic_sparse() {
  sim::EventQueue q;
  struct Ctx {
    sim::EventQueue* q;
    sim::Timer t;
    std::int64_t when;
    std::int64_t period;
  };
  constexpr int kPeriodic = 48;
  constexpr int kSparse = 4096;
  std::vector<Ctx> ctx(kPeriodic + kSparse);
  for (int i = 0; i < kPeriodic; ++i) {
    Ctx* c = &ctx[static_cast<std::size_t>(i)];
    c->q = &q;
    c->period = 1'000'000;  // 1 ms tick
    c->when = c->period + i;
    c->t = q.make_timer([c] {
      c->when += c->period;
      c->q->arm(c->t, SimTime(c->when));
    });
    q.arm(c->t, SimTime(c->when));
  }
  for (int i = 0; i < kSparse; ++i) {
    Ctx* c = &ctx[static_cast<std::size_t>(kPeriodic + i)];
    c->q = &q;
    c->period = 250'000'000 + std::int64_t(i) * 1000;  // 250 ms-ish timeouts
    c->when = c->period;
    c->t = q.make_timer([c] {
      c->when += c->period;
      c->q->arm(c->t, SimTime(c->when));
    });
    q.arm(c->t, SimTime(c->when));
  }
  const double t0 = now_s();
  const std::uint64_t target = 4'000'000;
  std::uint64_t fired = 0;
  while (fired < target) {
    q.pop_and_run();
    ++fired;
  }
  return double(fired) / (now_s() - t0);
}

/// Sparse horizon: a few dozen ms-scale timers and nothing else, a shallow
/// queue whose events are tens of microseconds apart.
double bench_sparse_horizon() {
  sim::EventQueue q;
  struct Ctx {
    sim::EventQueue* q;
    sim::Timer t;
    std::int64_t when;
    std::int64_t period;
  };
  constexpr int kTimers = 40;
  std::vector<Ctx> ctx(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    Ctx* c = &ctx[static_cast<std::size_t>(i)];
    c->q = &q;
    c->period = 2'000'000 + std::int64_t(i) * 7'001;  // ~2 ms, mutually prime-ish
    c->when = c->period;
    c->t = q.make_timer([c] {
      c->when += c->period;
      c->q->arm(c->t, SimTime(c->when));
    });
    q.arm(c->t, SimTime(c->when));
  }
  const double t0 = now_s();
  const std::uint64_t target = 2'000'000;
  std::uint64_t fired = 0;
  while (fired < target) {
    q.pop_and_run();
    ++fired;
  }
  return double(fired) / (now_s() - t0);
}

/// One event-loop scenario: its stdout label, its name in a FAIL line, the
/// events/sec it must reach and the function that measures it.
struct Scenario {
  const char* label;
  const char* name;
  double floor_per_s;
  double (*run)();
};

/// The floors are perf-regression gates for the event core. They were set
/// on a CI host, so a slower host can miss them with unchanged code
/// (docs/performance.md, "Reading micro_simcore's output").
constexpr Scenario kScenarios[] = {
    {"tick loop 4cpu (timer re-arm):", "tick_reschedule", 26'600'000,
     [] { return bench_tick_loop(4, 0); }},
    {"tick loop 64cpu + 16k sparse timers:", "tick_reschedule_scale", 7'000'000,
     [] { return bench_tick_loop(64, 16384); }},
    {"32B-capture one-shot events:", "big_capture", 16'100'000, bench_big_capture},
    {"schedule+cancel churn:", "cancel_churn", 16'800'000, bench_cancel_churn},
    {"same-instant bursts:", "same_tick_batch", 16'800'000, bench_same_tick_burst},
    {"timers, 192 ns to 32 ms periods:", "far_future_cascade", 14'000'000,
     bench_far_future_cascade},
    {"mixed periodic + sparse timeouts:", "mixed_periodic_sparse", 9'800'000,
     bench_mixed_periodic_sparse},
    {"sparse horizon (40 ms-scale timers):", "sparse_horizon", 1'000'000, bench_sparse_horizon},
};

/// Runs per scenario; the best rate is printed and gated.
constexpr int kRepeats = 3;

constexpr std::size_t kBatchRuns = 8;

/// The engine leg's batch on `jobs` workers: MetBench at 15 iterations, run
/// i in mode i % 4 with seed 1 + i / 4.
std::vector<analysis::RunResult> run_batch(unsigned jobs) {
  constexpr analysis::SchedMode kModes[] = {
      analysis::SchedMode::kBaselineCfs, analysis::SchedMode::kStatic,
      analysis::SchedMode::kUniform, analysis::SchedMode::kAdaptive};
  auto e = analysis::MetBenchExperiment::paper();
  e.workload.iterations = 15;
  exp::ParallelRunner runner(jobs);
  return runner.map(kBatchRuns, [&](std::size_t i) {
    return analysis::run_metbench(e, kModes[i % 4], /*trace=*/false, /*seed=*/1 + i / 4);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_flags(argc, argv, bench::kJobs).jobs;

  std::printf("=== simcore micro: event-loop hot paths, best of %d ===\n", kRepeats);
  double rates[std::size(kScenarios)] = {};
  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    for (int r = 0; r < kRepeats; ++r) rates[i] = std::max(rates[i], kScenarios[i].run());
    std::printf("%-40s%8.1fM events/s\n", kScenarios[i].label, rates[i] / 1e6);
  }

  std::printf("\n=== parallel experiment engine: 8-point MetBench sweep ===\n");
  const bool identical = run_batch(1) == run_batch(jobs);
  std::printf("--jobs %u rows bit-identical to --jobs 1: %s\n", jobs,
              identical ? "yes" : "NO — DETERMINISM BUG");

  bool ok = identical;
  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    if (rates[i] >= kScenarios[i].floor_per_s) continue;
    std::printf("FAIL %s: %.0f events/s, floor %.0f\n", kScenarios[i].name, rates[i],
                kScenarios[i].floor_per_s);
    ok = false;
  }
  return ok ? 0 : 1;
}
