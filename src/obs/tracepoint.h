#pragma once
// Tracepoints: kernel-ftrace-style record sites on the simulator's hot paths.
//
// A tracepoint id is a compile-time constant (the kTp* enumerators below;
// Recorder::record takes it as a template argument, so a record site that
// passes anything else does not compile), its record is a fixed-size
// 32-byte entry, and entries land in a per-CPU ring buffer that wraps by
// overwriting the oldest record (dropped entries are counted, never
// silently lost). A record site is the HPCS_TRACEPOINT macro: when
// observability is off the recorder pointer is null and the whole site
// compiles down to a single predictable branch — no call, no argument
// evaluation side effects beyond the operands themselves.

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace hpcs::obs {

/// Every tracepoint in the simulator. Append only — the catalogue order is
/// the registration order of the per-tracepoint hit counters, which the
/// deterministic-manifest contract depends on (docs/observability.md).
enum class TpId : std::uint16_t {
  kTpSchedSwitch = 0,    ///< context switch: a0 = next pid, a1 = prev pid (-1 = idle)
  kTpWake,               ///< task wakeup enqueued: a0 = pid, a1 = 0
  kTpMigrate,            ///< task migrated: a0 = pid, a1 = destination cpu
  kTpBalancePull,        ///< balancer pulled a task: a0 = pid, a1 = source cpu
  kTpHwPrio,             ///< hardware priority request: a0 = pid, a1 = new prio
  kTpHpcIteration,       ///< HPC iteration closed: a0 = pid, a1 = iteration
  kTpHpcImbalance,       ///< imbalance detected: a0 = pid, a1 = spread * 100
  kTpHpcPrioChange,      ///< heuristic changed a priority: a0 = pid, a1 = prio
  kTpHpcHistoryReset,    ///< behaviour change reset a task's history: a0 = pid
  kTpCount
};

inline constexpr std::size_t kTpCount = static_cast<std::size_t>(TpId::kTpCount);

/// Stable short name ("sched_switch", ...) used for metric names and trace
/// event labels.
[[nodiscard]] const char* tp_name(TpId id);

/// One fixed-size tracepoint record.
struct TraceEntry {
  SimTime t;
  std::uint32_t tp = 0;
  std::int32_t cpu = 0;
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
};
static_assert(sizeof(TraceEntry) == 32, "tracepoint entries are fixed-size");

/// Fixed-capacity ring of TraceEntry records. push() overwrites the oldest
/// entry once full; entries() returns the retained records oldest-first.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (min 2) so the wrap index is
  /// a mask, not a division.
  explicit TraceRing(std::size_t capacity);

  void push(const TraceEntry& e) {
    buf_[head_ & mask_] = e;
    ++head_;
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  /// Records currently retained (<= capacity()).
  [[nodiscard]] std::size_t size() const {
    return head_ < buf_.size() ? static_cast<std::size_t>(head_) : buf_.size();
  }
  /// Total records ever pushed.
  [[nodiscard]] std::uint64_t pushed() const { return head_; }
  /// Records lost to wrapping.
  [[nodiscard]] std::uint64_t dropped() const {
    return head_ < buf_.size() ? 0 : head_ - buf_.size();
  }

  /// Retained records, oldest first.
  [[nodiscard]] std::vector<TraceEntry> entries() const;

 private:
  std::vector<TraceEntry> buf_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;  ///< next write position (monotonic)
};

}  // namespace hpcs::obs

/// Record site: a single branch on the recorder pointer when disabled. The
/// id must be a kTp* compile-time constant other than kTpCount.
#define HPCS_TRACEPOINT(rec, id, when, cpu, arg0, arg1)               \
  do {                                                                \
    if ((rec) != nullptr) {                                           \
      (rec)->record<id>((when), (cpu), (arg0), (arg1));               \
    }                                                                 \
  } while (0)
