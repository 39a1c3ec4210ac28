#pragma once
// Cancellable discrete-event queue.
//
// Events are (time, sequence, callback) triples ordered by time then by
// insertion sequence, which makes simultaneous events fire in a deterministic
// FIFO order. Cancellation is O(1): each event carries a generation counter
// and an EventHandle remembers the id/generation it was issued for; stale
// entries are skipped lazily when they surface at the top of the heap.
//
// Storage is one binary min-heap of 16-byte (when, seq, slot id) entries
// over a table of callback slots. The simulated machines keep a few dozen
// events pending (per-CPU ticks, exec completions, network deliveries), so
// the heap stays cache-resident and a sift is a handful of compares.
//
// Hot-path design (see docs/performance.md):
//  * Callbacks are InplaceFunction — a fixed 48-byte inline buffer, so
//    scheduling never allocates and dispatch is one indirect call.
//  * Slots live in fixed chunks whose addresses never move, so a callback is
//    invoked in place even if it schedules new events (no per-dispatch
//    closure moves, unlike a std::vector of slots that may reallocate).
//  * reschedule() moves a pending event to a new time without touching its
//    callback, and — crucially for recurring events like the kernel's per-CPU
//    1 ms tick — may be called from *inside* the firing callback to re-arm
//    the same slot, keeping the handle valid and skipping the
//    destroy/construct/slot-allocate cycle entirely.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "simcore/inplace_function.h"

namespace hpcs::sim {

/// Inline capacity for event closures. Sized for the largest capture list in
/// the simulator (simmpi's [this, rank, dst, Message] sends); growing it is
/// cheap, but audit sizeof(EventQueue::Slot) when you do.
inline constexpr std::size_t kEventCallbackCapacity = 48;

using EventCallback = InplaceFunction<void(), kEventCallbackCapacity>;

/// Always-on queue counters (plain int64 increments on paths that already
/// touch the slot — too cheap to gate). Observability snapshots them into
/// the per-run metrics manifest as the sim.eq_* counters.
struct EventQueueStats {
  std::int64_t scheduled = 0;        ///< schedule() calls
  std::int64_t dispatched = 0;       ///< callbacks actually run
  std::int64_t resched_pending = 0;  ///< reschedule() moved a pending event
  std::int64_t resched_inplace = 0;  ///< reschedule() re-armed the firing slot
  std::int64_t stale_dropped = 0;    ///< superseded/cancelled entries skipped
};

/// Opaque reference to a scheduled event; safe to keep after the event fired
/// or was cancelled (operations on a stale handle are no-ops).
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return id_ != kNoId; }

 private:
  friend class EventQueue;
  static constexpr std::uint64_t kNoId = ~std::uint64_t{0};
  EventHandle(std::uint64_t id, std::uint64_t gen) : id_(id), gen_(gen) {}
  std::uint64_t id_ = kNoId;
  std::uint64_t gen_ = 0;
};

class EventQueue {
 public:
  /// Test seam: start the insertion-sequence counter near an arbitrary value
  /// so the wrapping-u32 tiebreak can be exercised around UINT32_MAX without
  /// four billion warm-up schedules. Only valid on an empty queue.
  void set_next_seq_for_test(std::uint32_t s) {
    HPCS_CHECK_MSG(live_count_ == 0 && heap_.empty(),
                   "set_next_seq_for_test() on a non-empty EventQueue");
    next_seq_ = s;
  }

  // HPCS_HOT_BEGIN — the public dispatch surface: every simulated event
  // passes through here, and none of it may allocate or construct a
  // std::function (hpcslint enforces; docs/performance.md explains). The
  // only allocations in the queue are the slot-chunk and heap growth,
  // deliberately amortized: they run once per table growth, not per event.

  /// Schedule `cb` to fire at absolute time `when` (must not be in the past
  /// relative to the last popped event).
  EventHandle schedule(SimTime when, EventCallback cb) {
    ++stats_.scheduled;
    const std::uint64_t id = alloc_slot();
    Slot& slot = slot_at(id);
    slot.cb = std::move(cb);
    slot.live = true;
    slot.has_entry = true;
    slot.seq = next_seq_++;
    ++slot.gen;
    ++live_count_;
    heap_push(HeapEntry{when, slot.seq, static_cast<std::uint32_t>(id)});
    return EventHandle{id, slot.gen};
  }

  /// Cancel a previously scheduled event. Returns true if the event was
  /// still pending; false if it already fired, was cancelled, or the handle
  /// is stale.
  bool cancel(EventHandle h) {
    if (!pending(h)) return false;
    Slot& slot = slot_at(h.id_);
    slot.live = false;
    slot.cb = nullptr;
    --live_count_;
    // The heap entry stays behind and is skipped lazily; the slot is
    // recycled only when that entry surfaces, so generations stay
    // unambiguous.
    return true;
  }

  /// Move the event behind `h` to fire at `when` instead, reusing its stored
  /// callback and keeping `h` valid. Also works from inside the event's own
  /// callback while it is firing (the recurring-event fast path: the slot is
  /// re-armed instead of freed when the callback returns). Returns false —
  /// and does nothing — if the handle is stale or cancelled; callers then
  /// fall back to schedule().
  bool reschedule(EventHandle h, SimTime when) {
    if (pending(h)) {
      ++stats_.resched_pending;
      Slot& slot = slot_at(h.id_);
      slot.seq = next_seq_++;
      slot.has_entry = true;  // the old entry becomes a superseded duplicate
      heap_push(HeapEntry{when, slot.seq, static_cast<std::uint32_t>(h.id_)});
      return true;
    }
    // Re-arm from inside the firing callback: the slot's entry was popped
    // for this dispatch but its callback is still intact.
    if (h.valid() && h.id_ == firing_slot_ && h.gen_ == firing_gen_) {
      ++stats_.resched_inplace;
      Slot& slot = slot_at(h.id_);
      slot.live = true;
      slot.has_entry = true;
      slot.seq = next_seq_++;
      ++live_count_;
      heap_push(HeapEntry{when, slot.seq, static_cast<std::uint32_t>(h.id_)});
      return true;
    }
    return false;
  }

  /// True if an event scheduled through `h` is still pending.
  [[nodiscard]] bool pending(EventHandle h) const {
    if (!h.valid() || h.id_ >= slot_count_) return false;
    const Slot& slot = slot_at(h.id_);
    return slot.live && slot.gen == h.gen_;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest pending event. Requires !empty(). May purge stale
  /// entries off the heap top (invisible to firing order).
  [[nodiscard]] SimTime next_time() {
    const bool found = heap_peek();
    HPCS_CHECK_MSG(found, "next_time() on empty event queue");
    return heap_.front().when;
  }

  /// Pop and run the earliest pending event; returns its time.
  SimTime pop_and_run() {
    SimTime t = SimTime::zero();
    const bool ran = run_next(SimTime::max(), t);
    HPCS_CHECK_MSG(ran, "pop_and_run() on empty event queue");
    return t;
  }

  /// Fused fast path for the simulator loop: if the earliest pending event
  /// fires at or before `deadline`, store its time into `clock`, run it and
  /// return true. Returns false (leaving `clock` untouched) when the queue
  /// is empty or the next event is past the deadline.
  bool run_next(SimTime deadline, SimTime& clock) {
    if (!heap_peek() || heap_.front().when > deadline) return false;
    const HeapEntry top = heap_.front();
    heap_pop();
    clock = top.when;
    ++stats_.dispatched;
    run_slot(top.id);
    return true;
  }

  /// Drop all pending events and reset sequence numbering, so a reused queue
  /// behaves exactly like a fresh one (tie-break order is part of the
  /// determinism contract). Must not be called from inside a firing
  /// callback: closures execute in place, so their storage has to outlive
  /// the call.
  void clear() {
    HPCS_CHECK_MSG(firing_slot_ == kNoSlot, "EventQueue::clear() from inside a callback");
    heap_.clear();
    chunks_.clear();
    slot_count_ = 0;
    free_slots_.clear();
    live_count_ = 0;
    next_seq_ = 0;
    stats_ = EventQueueStats{};
  }

  [[nodiscard]] const EventQueueStats& stats() const { return stats_; }

  // HPCS_HOT_END

 private:
  /// 16 bytes: two entries per cache line more during the sift loops, which
  /// are pure HeapEntry traffic. Slot ids fit u32 by the alloc_slot() cap;
  /// seq is a wrapping 32-bit window — see operator> for why wraparound
  /// cannot reorder live events.
  struct HeapEntry {
    SimTime when;
    std::uint32_t seq;
    std::uint32_t id;
    bool operator>(const HeapEntry& o) const {
      if (when != o.when) return when > o.when;
      // Wraparound-aware window compare: correct while same-instant entries
      // sit within 2^31 schedule() calls of each other. Tie-break order only
      // matters between LIVE entries at the same `when`, and the simulator's
      // same-instant fan-out (per-CPU ticks, message deliveries) is bounded
      // by machine size — nowhere near the 2^31 window.
      return static_cast<std::int32_t>(seq - o.seq) > 0;
    }
  };
  static_assert(sizeof(HeapEntry) == 16, "heap entries are two per cache line pair");
  struct Slot {
    EventCallback cb;
    std::uint64_t gen = 0;
    /// Sequence of the slot's *authoritative* entry (wrapping 32-bit window,
    /// same domain as HeapEntry::seq); entries with any other seq are
    /// superseded duplicates left behind by reschedule().
    std::uint32_t seq = 0;
    bool live = false;
    /// An authoritative heap entry for this slot still exists. The slot may
    /// be recycled only once that entry has surfaced and been dropped (keeps
    /// generations unambiguous under lazy deletion).
    bool has_entry = false;
  };

  /// Slots are allocated in fixed-size chunks so their addresses are stable:
  /// a firing callback runs in place even when it schedules new events.
  static constexpr std::uint64_t kChunkShift = 6;
  static constexpr std::uint64_t kChunkSize = 1ull << kChunkShift;
  static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

  [[nodiscard]] Slot& slot_at(std::uint64_t id) {
    return chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint64_t id) const {
    return chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
  }

  std::uint64_t alloc_slot() {
    if (!free_slots_.empty()) {
      const std::uint64_t id = free_slots_.back();
      free_slots_.pop_back();
      return id;
    }
    // Heap entries address slots with 32 bits. Slots are recycled, so the
    // count only grows with the peak number of simultaneously pending
    // events — 2^32 of them would be a runaway workload, not a sweep.
    HPCS_CHECK_MSG(slot_count_ < (std::uint64_t{1} << 32),
                   "EventQueue slot table exceeds 32-bit heap-entry ids");
    const std::uint64_t id = slot_count_++;
    if ((id >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    return id;
  }

  // HPCS_HOT_BEGIN — per-event heap maintenance and dispatch.

  // Hand-rolled binary-heap sifts. Unlike std::pop_heap's hole-to-leaf
  // strategy, sift-down stops as soon as the moved element dominates both
  // children — for recurring events (N CPUs ticking at the same instant) the
  // replacement usually belongs right at the top, making this O(1) in
  // practice. Pop order depends only on the (when, seq) total order, so the
  // layout is free to differ from std::*_heap without affecting determinism.
  void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(heap_[parent] > e)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heap_pop() {
    const std::size_t n = heap_.size() - 1;
    if (n > 0) {
      const HeapEntry e = heap_[n];
      // Descend the hole along the smaller-child path to a leaf, then sift
      // the displaced last element back up — ~1 comparison per level instead
      // of 2, which wins when draining long runs of stale entries.
      std::size_t i = 0;
      std::size_t child = 1;
      while (child < n) {
        if (child + 1 < n && heap_[child] > heap_[child + 1]) ++child;
        heap_[i] = heap_[child];
        i = child;
        child = 2 * i + 1;
      }
      while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(heap_[parent] > e)) break;
        heap_[i] = heap_[parent];
        i = parent;
      }
      heap_[i] = e;
    }
    heap_.pop_back();
  }

  /// Pop superseded / cancelled entries off the heap top; true if an
  /// authoritative live entry remains.
  bool heap_peek() {
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      Slot& slot = slot_at(top.id);
      if (top.seq == slot.seq) {
        if (slot.live) return true;
        // Cancelled: its authoritative entry has surfaced — recycle.
        slot.has_entry = false;
        free_slots_.push_back(top.id);
      }
      // else: superseded by reschedule(); drop the duplicate.
      ++stats_.stale_dropped;
      heap_pop();
    }
    return false;
  }

  /// Dispatch epilogue: fire the slot's callback in place and recycle the
  /// slot unless the callback re-armed it.
  void run_slot(std::uint64_t id) {
    Slot& slot = slot_at(id);
    slot.live = false;
    slot.has_entry = false;
    --live_count_;
    firing_slot_ = id;
    firing_gen_ = slot.gen;
    // Chunk addresses are stable, so the closure runs in place; scheduling
    // from inside the callback cannot move it.
    slot.cb();
    firing_slot_ = kNoSlot;
    Slot& after = slot_at(id);
    if (after.gen == firing_gen_ && !after.live && !after.has_entry) {
      after.cb = nullptr;  // fired for good: destroy the closure, recycle
      free_slots_.push_back(id);
    }
  }

  // HPCS_HOT_END

  std::vector<HeapEntry> heap_;  ///< min-heap by (when, seq), with lazy deletion
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint64_t slot_count_ = 0;
  std::vector<std::uint64_t> free_slots_;
  /// Wrapping 32-bit sequence window (see HeapEntry::operator>).
  std::uint32_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  /// Slot currently executing inside run_slot (kNoSlot otherwise); its
  /// callback may re-arm itself via reschedule().
  std::uint64_t firing_slot_ = kNoSlot;
  std::uint64_t firing_gen_ = 0;
  EventQueueStats stats_;
};

}  // namespace hpcs::sim
