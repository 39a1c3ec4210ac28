// Micro-benchmarks (google-benchmark) of the scheduler's hot paths — the
// engineering claim of §IV-A: with ~1 task per CPU, the HPC class's
// round-robin list is as good as (and simpler/cheaper than) the CFS
// red-black tree. Also covers the event queue and the throughput model.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>

#include "kernel/cfs_class.h"
#include "power5/throughput.h"
#include "simcore/event_queue.h"

namespace {

using hpcs::Duration;
using hpcs::SimTime;

// CFS-style pick-next on the CFS run queue's container: erase leftmost,
// reinsert with advanced key.
void BM_CfsTreePickNext(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  decltype(hpcs::kern::CfsRq::tree) tree;
  for (int i = 0; i < n; ++i) tree.emplace(hpcs::kern::CfsKey{i * 1000, i}, nullptr);
  std::int64_t clock = std::int64_t{n} * 1000;
  for (auto _ : state) {
    const auto [key, v] = *tree.begin();
    tree.erase(tree.begin());
    clock += 1000;
    tree.emplace(hpcs::kern::CfsKey{clock, key.second}, v);
    benchmark::DoNotOptimize(tree.begin()->second);
  }
}
BENCHMARK(BM_CfsTreePickNext)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// HPC-style pick-next: deque rotate.
void BM_HpcQueuePickNext(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::deque<int> q;
  for (int i = 0; i < n; ++i) q.push_back(i);
  for (auto _ : state) {
    const int t = q.front();
    q.pop_front();
    q.push_back(t);
    benchmark::DoNotOptimize(q.front());
  }
}
BENCHMARK(BM_HpcQueuePickNext)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  hpcs::sim::EventQueue q;
  std::int64_t t = 0;
  int sink = 0;
  for (auto _ : state) {
    q.schedule(SimTime(t + 100), [&sink] { ++sink; });
    q.schedule(SimTime(t + 50), [&sink] { ++sink; });
    q.pop_and_run();
    q.pop_and_run();
    t += 100;
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueCancel(benchmark::State& state) {
  hpcs::sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    auto h = q.schedule(SimTime(t + 100), [] {});
    benchmark::DoNotOptimize(q.cancel(h));
    ++t;
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_ThroughputModel(benchmark::State& state) {
  const hpcs::p5::ThroughputParams params;
  int pa = 2;
  int pb = 6;
  for (auto _ : state) {
    const auto s = hpcs::p5::context_speeds(params, hpcs::p5::hw_prio_from_int(pa), true,
                                            hpcs::p5::hw_prio_from_int(pb), true);
    benchmark::DoNotOptimize(s);
    pa = pa == 6 ? 2 : pa + 1;
  }
}
BENCHMARK(BM_ThroughputModel);

}  // namespace

BENCHMARK_MAIN();
