#pragma once
// Cycle-level decode-slot micro-simulator: the ground-truth model behind the
// fluid throughput curve. It replays the POWER5 arbitration literally —
// every time slice of R cycles the lower-priority context receives 1 decode
// cycle and the higher-priority one R-1 (paper §II-B / Table I) — against
// two threads with bounded instruction-level parallelism, and counts the
// instructions each context actually issues.
//
// Used by `tests/test_cycle_sim.cpp` to cross-validate the
// interpolated speed(share) curve: the decode SHARE delivered by the window
// mechanism must match Table I exactly, and the issue throughput must be
// monotone and asymmetric the way the fluid model assumes.

#include <cstdint>

#include "power5/hw_priority.h"

namespace hpcs::p5 {

/// A thread's execution characteristics in the micro-simulator.
struct ThreadModel {
  /// Instructions the thread *generates* per cycle (its inherent ILP /
  /// memory-boundedness). Work accrues with time into a small buffer and is
  /// consumed on granted decode slots — so a thread with demand_ipc < 1
  /// saturates: extra decode share beyond its demand buys nothing (the
  /// winner-saturation effect of the fluid curve).
  double demand_ipc = 1.0;
  /// Fraction of granted cycles lost to stalls (cache-miss model): a
  /// stalled slot issues nothing and is wasted unless the sibling steals it.
  double stall_rate = 0.0;
  /// Instruction-buffer depth in window units (how much accrued work can
  /// wait for decode slots).
  double buffer_depth = 8.0;
};

struct CycleSimResult {
  std::int64_t cycles = 0;
  std::int64_t decode_a = 0;  ///< decode cycles granted to context A
  std::int64_t decode_b = 0;
  double issued_a = 0.0;  ///< instructions issued by A
  double issued_b = 0.0;

  [[nodiscard]] double share_a() const {
    const auto total = decode_a + decode_b;
    return total > 0 ? static_cast<double>(decode_a) / static_cast<double>(total) : 0.0;
  }
  [[nodiscard]] double ipc_a() const {
    return cycles > 0 ? issued_a / static_cast<double>(cycles) : 0.0;
  }
  [[nodiscard]] double ipc_b() const {
    return cycles > 0 ? issued_b / static_cast<double>(cycles) : 0.0;
  }
};

/// Run the decode arbitration for `cycles` cycles with priorities (a, b).
/// Both priorities must be regular (2..6). `steal` lets a thread issue in a
/// slot its sibling left stalled (the reclaim effect of the fluid model).
/// Deterministic: stalls are spread by a fixed-stride counter, not RNG.
[[nodiscard]] CycleSimResult run_decode_sim(HwPrio a, HwPrio b, const ThreadModel& ta,
                                            const ThreadModel& tb, std::int64_t cycles,
                                            bool steal = true);

}  // namespace hpcs::p5
