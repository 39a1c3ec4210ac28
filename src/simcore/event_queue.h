#pragma once
// Cancellable discrete-event queue.
//
// Events are ordered by time, then by lane, then by insertion sequence, which
// makes simultaneous events fire in a deterministic order: kFirst-lane events
// (the kernel tick) ahead of every kNormal event at their instant, kNormal
// events FIFO. Each EventHandle remembers the slot id/generation it was
// issued for, so operations on a stale handle are safe no-ops.
//
// Storage is one indexed binary min-heap of 16-byte (when, seq, slot id +
// lane) entries over a table of callback slots. Every slot records where its
// entry sits in the heap, so cancel() removes the entry at once and
// reschedule() re-keys it in place: the heap holds exactly the pending events.
//
// Hot-path design (see docs/performance.md):
//  * Callbacks are InplaceFunction — a fixed 48-byte inline buffer, so
//    scheduling never allocates and dispatch is one indirect call.
//  * Slots live in fixed chunks whose addresses never move, so a callback is
//    invoked in place even if it schedules new events (no per-dispatch
//    closure moves, unlike a std::vector of slots that may reallocate).
//  * reschedule() moves a pending event to a new time without touching its
//    callback, and — crucially for recurring events like the kernel tick —
//    may be called from *inside* the firing callback to re-arm the same
//    slot, keeping the handle valid and skipping the
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

/// Same-instant order class of an event: kFirst before kNormal at an
/// instant; within a lane, in the order of the last (re)arm
/// (schedule()/reschedule()).
enum class Lane : std::uint8_t { kFirst = 0, kNormal = 1 };

/// Always-on queue counters (plain int64 increments on paths that already
/// touch the slot — too cheap to gate). Observability snapshots them into
/// the per-run metrics manifest as the sim.eq_* counters.
struct EventQueueStats {
  std::int64_t scheduled = 0;        ///< schedule() calls
  std::int64_t dispatched = 0;       ///< callbacks actually run
  std::int64_t resched_pending = 0;  ///< reschedule() moved a pending event
  std::int64_t resched_inplace = 0;  ///< reschedule() re-armed the firing slot
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
    HPCS_CHECK_MSG(heap_.empty(), "set_next_seq_for_test() on a non-empty EventQueue");
    next_seq_ = s;
  }

  // The public dispatch surface: every simulated event passes through here,
  // and none of it may allocate or construct a std::function
  // (EventQueue.SteadyStateDispatchDoesNotAllocate in tests/test_simcore.cpp
  // enforces; docs/performance.md explains). The only allocations in the
  // queue are the slot-chunk and heap growth, deliberately amortized: they
  // run once per table growth, not per event.

  /// Schedule `cb` to fire at absolute time `when` (must not be in the past
  /// relative to the last popped event).
  EventHandle schedule(SimTime when, EventCallback cb, Lane lane = Lane::kNormal) {
    ++stats_.scheduled;
    const std::uint32_t id = alloc_slot();
    Slot& slot = slot_at(id);
    slot.cb = std::move(cb);
    slot.live = true;
    slot.lane = lane;
    ++slot.gen;
    ++live_count_;
    heap_push(HeapEntry{when, next_seq_++, (id << 1) | static_cast<std::uint32_t>(lane)});
    return EventHandle{id, slot.gen};
  }

  /// Cancel a previously scheduled event; its heap entry is removed at once.
  /// Returns true if the event was still pending; false if it already fired,
  /// was cancelled, or the handle is stale.
  bool cancel(EventHandle h) {
    if (!pending(h)) return false;
    const auto id = static_cast<std::uint32_t>(h.id_);
    slot_at(id).live = false;
    --live_count_;
    heap_erase(pos_[id]);
    // A callback that re-armed its own event and then cancelled it is still
    // running: its closure must outlive the call, so run_slot's epilogue
    // destroys it and recycles the slot.
    if (id != firing_slot_) release(id);
    return true;
  }

  /// Move the event behind `h` to fire at `when` instead, reusing its stored
  /// callback and keeping `h` valid. Also works from inside the event's own
  /// callback while it is firing (the recurring-event fast path: the slot is
  /// re-armed instead of freed when the callback returns). Returns false —
  /// and does nothing — if the handle is stale or cancelled; callers then
  /// fall back to schedule().
  bool reschedule(EventHandle h, SimTime when) {
    const auto id = static_cast<std::uint32_t>(h.id_);
    if (pending(h)) {
      ++stats_.resched_pending;
      const std::size_t i = pos_[id];
      const HeapEntry old = heap_[i];
      const HeapEntry e{when, next_seq_++, old.key};
      if (e > old) {
        sift_down(i, e);
      } else {
        sift_up(i, e);
      }
      return true;
    }
    // Re-arm from inside the firing callback: the slot's entry was popped
    // for this dispatch but its callback is still intact.
    if (h.valid() && id == firing_slot_ && h.gen_ == firing_gen_) {
      ++stats_.resched_inplace;
      Slot& slot = slot_at(id);
      slot.live = true;
      ++live_count_;
      heap_push(HeapEntry{when, next_seq_++, (id << 1) | static_cast<std::uint32_t>(slot.lane)});
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
  /// Entries physically in the heap: always size(), since cancel() and
  /// reschedule() leave no dead entry behind (tests pin this).
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] SimTime next_time() const {
    HPCS_CHECK_MSG(!heap_.empty(), "next_time() on empty event queue");
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
    if (heap_.empty() || heap_.front().when > deadline) return false;
    const HeapEntry top = heap_.front();
    heap_pop();
    clock = top.when;
    ++stats_.dispatched;
    --live_count_;
    run_slot(top.key >> 1);
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
    pos_.clear();
    slot_count_ = 0;
    free_slots_.clear();
    live_count_ = 0;
    next_seq_ = 0;
    stats_ = EventQueueStats{};
  }

  [[nodiscard]] const EventQueueStats& stats() const { return stats_; }

 private:
  /// 16 bytes: two entries per cache line more during the sift loops, which
  /// are pure HeapEntry traffic. `key` is the slot id shifted left by one
  /// over the lane bit (kFirst = 0 sorts first); seq is a wrapping 32-bit
  /// window — see operator> for why wraparound cannot reorder events.
  struct HeapEntry {
    SimTime when;
    std::uint32_t seq;
    std::uint32_t key;
    bool operator>(const HeapEntry& o) const {
      if (when != o.when) return when > o.when;
      if (((key ^ o.key) & 1u) != 0) return (key & 1u) > (o.key & 1u);
      // Wraparound-aware window compare: correct while same-instant entries
      // of one lane sit within 2^31 schedule() calls of each other. The
      // simulator's same-instant fan-out (message deliveries, zero-delay
      // reschedules) is bounded by machine size — nowhere near the 2^31
      // window.
      return static_cast<std::int32_t>(seq - o.seq) > 0;
    }
  };
  static_assert(sizeof(HeapEntry) == 16, "heap entries are two per cache line pair");
  struct Slot {
    EventCallback cb;
    std::uint64_t gen = 0;
    Lane lane = Lane::kNormal;
    bool live = false;  ///< pending: the slot has an entry in the heap
  };

  /// Slots are allocated in fixed-size chunks so their addresses are stable:
  /// a firing callback runs in place even when it schedules new events.
  static constexpr std::uint64_t kChunkShift = 6;
  static constexpr std::uint64_t kChunkSize = 1ull << kChunkShift;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] Slot& slot_at(std::uint64_t id) {
    return chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint64_t id) const {
    return chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
  }

  std::uint32_t alloc_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t id = free_slots_.back();
      free_slots_.pop_back();
      return id;
    }
    // Heap entries address slots with 31 bits (the key's low bit is the
    // lane). Slots are recycled, so the count only grows with the peak
    // number of simultaneously pending events — 2^31 of them would be a
    // runaway workload, not a sweep.
    HPCS_CHECK_MSG(slot_count_ < (std::uint64_t{1} << 31),
                   "EventQueue slot table exceeds 31-bit heap-entry ids");
    const auto id = static_cast<std::uint32_t>(slot_count_++);
    if ((id >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    pos_.push_back(0);
    return id;
  }

  /// Destroy a slot's closure and return the slot to the free list.
  void release(std::uint32_t id) {
    slot_at(id).cb = nullptr;
    free_slots_.push_back(id);
  }

  // Hand-rolled binary-heap sifts that keep pos_ in step with every move.
  // Pop order depends only on the (when, lane, seq) total order, so the
  // layout is free to differ from std::*_heap without affecting determinism.
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    pos_[e.key >> 1] = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i, HeapEntry e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(heap_[parent] > e)) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i, HeapEntry e) {
    const std::size_t n = heap_.size();
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && heap_[child] > heap_[child + 1]) ++child;
      if (!(e > heap_[child])) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  void heap_push(HeapEntry e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1, e);
  }

  void heap_pop() {
    const std::size_t n = heap_.size() - 1;
    if (n > 0) {
      const HeapEntry e = heap_[n];
      // Descend the hole along the smaller-child path to a leaf, then sift
      // the displaced last element back up — ~1 comparison per level instead
      // of 2: the last element is usually a far-future timer that belongs
      // near the bottom again.
      std::size_t i = 0;
      std::size_t child = 1;
      while (child < n) {
        if (child + 1 < n && heap_[child] > heap_[child + 1]) ++child;
        place(i, heap_[child]);
        i = child;
        child = 2 * i + 1;
      }
      while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(heap_[parent] > e)) break;
        place(i, heap_[parent]);
        i = parent;
      }
      place(i, e);
    }
    heap_.pop_back();
  }

  /// Remove the entry at heap index `i`; the last entry fills the hole and
  /// moves whichever way its key requires.
  void heap_erase(std::size_t i) {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    if (i > 0 && heap_[(i - 1) / 2] > last) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

  /// Dispatch epilogue: fire the slot's callback in place and recycle the
  /// slot unless the callback re-armed it.
  void run_slot(std::uint32_t id) {
    Slot& slot = slot_at(id);
    slot.live = false;
    firing_slot_ = id;
    firing_gen_ = slot.gen;
    // Chunk addresses are stable, so the closure runs in place; scheduling
    // from inside the callback cannot move it, and the slot cannot be
    // recycled before this epilogue.
    slot.cb();
    firing_slot_ = kNoSlot;
    if (!slot.live) release(id);
  }

  std::vector<HeapEntry> heap_;  ///< min-heap by (when, lane, seq); exactly the pending events
  std::vector<std::uint32_t> pos_;  ///< heap index of each pending slot's entry
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint64_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  /// Wrapping 32-bit sequence window (see HeapEntry::operator>).
  std::uint32_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  /// Slot currently executing inside run_slot (kNoSlot otherwise); its
  /// callback may re-arm itself via reschedule().
  std::uint32_t firing_slot_ = kNoSlot;
  std::uint64_t firing_gen_ = 0;
  EventQueueStats stats_;
};

}  // namespace hpcs::sim
