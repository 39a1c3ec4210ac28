#include "probe.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exp/parallel_runner.h"
#include "layers.h"

namespace pb {

namespace {

/// xorshift64: fixed-seed keys, so every probe does the same work.
struct XorShift {
  std::uint64_t s = 88172645463325252ULL;
  std::uint64_t operator()() {
    s ^= s << 13U;
    s ^= s >> 7U;
    s ^= s << 17U;
    return s;
  }
};

constexpr std::size_t kRingSlots = std::size_t{1} << 20U;  // 4 MiB of indices
constexpr std::size_t kKeys = std::size_t{1} << 14U;
constexpr std::size_t kEvents = 20'000;

/// One probe's memory, allocated on the first probe and kept, so every probe
/// touches the same pages.
struct Buffers {
  std::vector<std::uint32_t> ring;  ///< one random cycle (Sattolo's shuffle)
  std::vector<std::uint32_t> keys;
  std::vector<std::uint64_t> events;

  Buffers() : ring(kRingSlots), keys(kKeys) {
    XorShift rng;
    rng.s ^= 0x9E3779B97F4A7C15ULL;
    for (std::size_t i = 0; i < kRingSlots; ++i) ring[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kRingSlots - 1; i > 0; --i) std::swap(ring[i], ring[rng() % i]);
    events.reserve(kEvents + 1);
  }
};

std::atomic<std::uint64_t> g_sink{0};  // keeps the probe's results observable

/// The probe's work on one set of buffers.
void probe_once(Buffers& b) {
  XorShift rng;
  std::uint64_t acc = 0;

  std::uint32_t j = 0;
  for (int i = 0; i < 800'000; ++i) j = b.ring[j];
  acc += j;

  std::vector<std::uint32_t>& keys = b.keys;
  for (int round = 0; round < 11; ++round) {
    for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(rng());
    std::sort(keys.begin(), keys.end());
    acc += keys[keys.size() / 2];
  }

  // A min-heap of event times: pop the earliest, push a later one.
  std::vector<std::uint64_t>& events = b.events;
  events.clear();
  for (std::size_t i = 0; i < kEvents; ++i) {
    events.push_back(rng() % 1'000'000);
    std::push_heap(events.begin(), events.end(), std::greater<>());
  }
  for (int i = 0; i < 200'000; ++i) {
    std::pop_heap(events.begin(), events.end(), std::greater<>());
    const std::uint64_t e = events.back();
    acc += e;
    events.back() = e + 1 + rng() % 5000;
    std::push_heap(events.begin(), events.end(), std::greater<>());
  }

  g_sink += acc;
}

}  // namespace

double host_probe(unsigned jobs) {
  static std::vector<std::unique_ptr<Buffers>> buffers;
  while (buffers.size() < jobs) buffers.push_back(std::make_unique<Buffers>());
  const Clock::time_point t0 = Clock::now();
  hpcs::exp::ParallelRunner runner(jobs);
  (void)runner.map(jobs, [&](std::size_t i) {
    probe_once(*buffers[i]);
    return 0;
  });
  return seconds_since(t0);
}

}  // namespace pb
