#pragma once
// Cancellable discrete-event queue with persistent timers.
//
// Events are ordered by time, then by lane, then by insertion sequence, which
// makes simultaneous events fire in a deterministic order: kFirst-lane events
// (the kernel tick) ahead of every kNormal event at their instant, kNormal
// events FIFO. Each EventHandle remembers the slot id/generation it was
// issued for, so operations on a stale handle are safe no-ops.
//
// Two kinds of event share one table of callback slots:
//  * one-shots (schedule()): the closure is stored, fires once and its slot
//    is recycled;
//  * timers (make_timer()): the slot and its callback are installed once and
//    never released; arm() (re)starts the timer and cancel() stops it. The
//    kernel's recurring events (the tick, per-CPU exec and resched events,
//    per-task wake-cost and sleep events) are timers, so they construct no
//    closure and allocate no slot per firing.
//
// Storage is a sorted *near run* of at most kNearCapacity 16-byte
// (when, seq, slot id + lane) entries in front of an indexed binary min-heap.
// Every near-run entry fires before every heap entry, so a pop takes the
// run's head, or the heap's top when the run is empty. The paper's machine
// keeps 5-11 events pending, so nearly every pop and arm stays in the run;
// queues deeper than the run spill their latest entries into the heap.
// Every slot records where its entry sits (a heap index, or kInNear), so
// cancel() and a re-arm remove the entry at once: the run and the heap hold
// exactly the pending events.
//
// Hot-path design (see docs/performance.md):
//  * Callbacks are InplaceFunction — a fixed 48-byte inline buffer, so
//    scheduling never allocates and dispatch is one indirect call.
//  * Slots live in fixed chunks whose addresses never move, so a callback is
//    invoked in place even if it schedules new events (no per-dispatch
//    closure moves, unlike a std::vector of slots that may reallocate).

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
/// instant; within a lane, in the order of the last schedule() / arm().
enum class Lane : std::uint8_t { kFirst = 0, kNormal = 1 };

/// Always-on queue counters (plain int64 increments on paths that already
/// touch the slot — too cheap to gate). Observability snapshots them into
/// the per-run metrics manifest as the sim.eq_* counters.
struct EventQueueStats {
  std::int64_t scheduled = 0;        ///< schedule() calls and arms of an idle timer
  std::int64_t dispatched = 0;       ///< callbacks actually run
  std::int64_t resched_pending = 0;  ///< arms of a pending timer (re-keyed)
  std::int64_t resched_inplace = 0;  ///< arms of the timer whose callback is running
};

/// Opaque reference to a one-shot event; safe to keep after the event fired
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

/// A persistent event made by EventQueue::make_timer(). Its slot lives as
/// long as the queue (until clear()); a default-constructed Timer is no
/// timer and must not be armed.
class Timer {
 public:
  Timer() = default;

  [[nodiscard]] bool valid() const { return id_ != kNoId; }

 private:
  friend class EventQueue;
  static constexpr std::uint32_t kNoId = ~std::uint32_t{0};
  explicit Timer(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = kNoId;
};

class EventQueue {
 public:
  /// Entries the near run holds before arms spill into the heap. A constant:
  /// it holds every paper run's whole queue, while queues of thousands of
  /// timers (micro_simcore's deep scenarios) stay on the heap.
  static constexpr std::uint32_t kNearCapacity = 16;

  /// Test seam: start the insertion-sequence counter near an arbitrary value
  /// so the wrapping-u32 tiebreak can be exercised around UINT32_MAX without
  /// four billion warm-up schedules. Only valid on an empty queue.
  void set_next_seq_for_test(std::uint32_t s) {
    HPCS_CHECK_MSG(entries() == 0, "set_next_seq_for_test() on a non-empty EventQueue");
    next_seq_ = s;
  }

  // The public dispatch surface: every simulated event passes through here,
  // and none of it may allocate or construct a std::function
  // (EventQueue.SteadyStateDispatchDoesNotAllocate in tests/test_simcore.cpp
  // enforces; docs/performance.md explains). The only allocations in the
  // queue are the slot-chunk and heap growth, deliberately amortized: they
  // run once per table growth, not per event.

  /// Schedule `cb` to fire once at absolute time `when` (must not be in the
  /// past relative to the last popped event).
  EventHandle schedule(SimTime when, EventCallback cb, Lane lane = Lane::kNormal) {
    ++stats_.scheduled;
    const std::uint32_t id = alloc_slot();
    Slot& slot = slot_at(id);
    slot.cb = std::move(cb);
    slot.live = true;
    slot.lane = lane;
    ++slot.gen;
    ++live_count_;
    insert(HeapEntry{when, next_seq_++, (id << 1) | static_cast<std::uint32_t>(lane)});
    return EventHandle{id, slot.gen};
  }

  /// Cancel a one-shot event; its entry is removed at once. Returns true if
  /// the event was still pending; false if it already fired, was cancelled,
  /// or the handle is stale.
  bool cancel(EventHandle h) {
    if (!pending(h)) return false;
    const auto id = static_cast<std::uint32_t>(h.id_);
    disarm(id);
    release(id);
    return true;
  }

  /// True if an event scheduled through `h` is still pending.
  [[nodiscard]] bool pending(EventHandle h) const {
    if (!h.valid() || h.id_ >= slot_count_) return false;
    const Slot& slot = slot_at(h.id_);
    return slot.live && slot.gen == h.gen_;
  }

  /// Install a timer that runs `cb` each time it fires. The timer starts
  /// idle; arm() starts it.
  Timer make_timer(EventCallback cb, Lane lane = Lane::kNormal) {
    const std::uint32_t id = alloc_slot();
    Slot& slot = slot_at(id);
    slot.cb = std::move(cb);
    slot.lane = lane;
    slot.timer = true;
    ++slot.gen;  // a stale EventHandle to a recycled slot stays stale
    return Timer{id};
  }

  /// Fire `t` at `when`, taking a fresh sequence number — the same order a
  /// cancel() followed by a schedule() would give. A pending timer is
  /// re-keyed; an idle one, or the one whose callback is running, is queued
  /// again.
  void arm(Timer t, SimTime when) {
    const std::uint32_t id = t.id_;
    HPCS_CHECK_MSG(id < slot_count_ && slot_at(id).timer, "arm() of a non-timer slot");
    Slot& slot = slot_at(id);
    const HeapEntry e{when, next_seq_++, (id << 1) | static_cast<std::uint32_t>(slot.lane)};
    if (slot.live) {
      ++stats_.resched_pending;
      erase(id);
    } else {
      if (id == firing_slot_) {
        ++stats_.resched_inplace;
      } else {
        ++stats_.scheduled;
      }
      slot.live = true;
      ++live_count_;
    }
    insert(e);
  }

  /// Stop a timer. Returns true if it was pending.
  bool cancel(Timer t) {
    if (!pending(t)) return false;
    disarm(t.id_);
    return true;
  }

  /// True if `t` is armed and has not fired since.
  [[nodiscard]] bool pending(Timer t) const {
    return t.id_ < slot_count_ && slot_at(t.id_).live;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }
  /// Entries physically queued (near run plus heap): always size(), since
  /// cancel() and arm() leave no dead entry behind (tests pin this).
  [[nodiscard]] std::size_t entries() const { return near_size_ + heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] SimTime next_time() const {
    if (near_size_ != 0) return near_[near_size_ - 1].when;
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
    HeapEntry top;
    if (near_size_ != 0) {
      top = near_[near_size_ - 1];
      if (top.when > deadline) return false;
      --near_size_;
    } else {
      if (heap_.empty() || heap_.front().when > deadline) return false;
      top = heap_.front();
      heap_pop();
    }
    clock = top.when;
    ++stats_.dispatched;
    --live_count_;
    run_slot(top.key >> 1);
    return true;
  }

  /// Drop all pending events and every timer, and reset sequence numbering,
  /// so a reused queue behaves exactly like a fresh one (tie-break order is
  /// part of the determinism contract). A Timer made before clear() must not
  /// be used after it. Must not be called from inside a firing callback:
  /// closures execute in place, so their storage has to outlive the call.
  void clear() {
    HPCS_CHECK_MSG(firing_slot_ == kNoSlot, "EventQueue::clear() from inside a callback");
    near_size_ = 0;
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
      // of one lane sit within 2^31 arms of each other. The simulator's
      // same-instant fan-out (message deliveries, zero-delay reschedules)
      // is bounded by machine size — nowhere near the 2^31 window.
      return static_cast<std::int32_t>(seq - o.seq) > 0;
    }
  };
  static_assert(sizeof(HeapEntry) == 16, "heap entries are two per cache line pair");
  struct Slot {
    EventCallback cb;
    std::uint64_t gen = 0;
    Lane lane = Lane::kNormal;
    bool live = false;   ///< pending: the slot has an entry in the run or the heap
    bool timer = false;  ///< made by make_timer(): never released
  };

  /// Slots are allocated in fixed-size chunks so their addresses are stable:
  /// a firing callback runs in place even when it schedules new events.
  static constexpr std::uint64_t kChunkShift = 6;
  static constexpr std::uint64_t kChunkSize = 1ull << kChunkShift;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// pos_ value of a slot whose entry sits in the near run.
  static constexpr std::uint32_t kInNear = ~std::uint32_t{0};

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
    // lane). One-shot slots are recycled, so the count only grows with the
    // timers plus the peak number of pending one-shots — 2^31 of them would
    // be a runaway workload, not a sweep.
    HPCS_CHECK_MSG(slot_count_ < (std::uint64_t{1} << 31),
                   "EventQueue slot table exceeds 31-bit heap-entry ids");
    const auto id = static_cast<std::uint32_t>(slot_count_++);
    if ((id >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    pos_.push_back(0);
    return id;
  }

  /// Destroy a one-shot's closure and return its slot to the free list.
  void release(std::uint32_t id) {
    slot_at(id).cb = nullptr;
    free_slots_.push_back(id);
  }

  /// Take a pending slot's entry out of the queue.
  void disarm(std::uint32_t id) {
    slot_at(id).live = false;
    --live_count_;
    erase(id);
  }

  // ---- near run + heap ----------------------------------------------------
  // near_[0, near_size_) is sorted latest first, so the head (the earliest
  // entry) is near_[near_size_ - 1] and a pop is a decrement. Every entry in
  // the run fires before every heap entry.

  // Entries pass by value: they are built in registers just before, and a
  // 16-byte reload of a just-stored entry stalls on store forwarding.
  void insert(HeapEntry e) {
    if (!heap_.empty() && e > heap_.front()) {
      heap_push(e);
      return;
    }
    if (near_size_ == kNearCapacity) {
      if (e > near_[0]) {
        heap_push(e);  // after the whole run, before the heap's top
        return;
      }
      // Make room: the run's latest entry becomes the heap's earliest.
      heap_push(near_[0]);
      for (std::uint32_t i = 1; i < near_size_; ++i) near_[i - 1] = near_[i];
      --near_size_;
    }
    std::uint32_t i = near_size_++;
    for (; i > 0 && e > near_[i - 1]; --i) near_[i] = near_[i - 1];
    near_[i] = e;
    pos_[e.key >> 1] = kInNear;
  }

  /// Remove a queued slot's entry from the run or the heap.
  void erase(std::uint32_t id) {
    const std::uint32_t p = pos_[id];
    if (p != kInNear) {
      heap_erase(p);
      return;
    }
    std::uint32_t i = 0;
    while ((near_[i].key >> 1) != id) ++i;
    for (++i; i < near_size_; ++i) near_[i - 1] = near_[i];
    --near_size_;
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

  /// Dispatch epilogue: fire the slot's callback in place, then recycle a
  /// one-shot's slot. While the callback runs, arming its own timer counts
  /// as an in-place re-arm.
  void run_slot(std::uint32_t id) {
    Slot& slot = slot_at(id);
    slot.live = false;
    firing_slot_ = id;
    // Chunk addresses are stable, so the closure runs in place; scheduling
    // from inside the callback cannot move it, and the slot cannot be
    // recycled before this epilogue.
    slot.cb();
    firing_slot_ = kNoSlot;
    if (!slot.timer) release(id);
  }

  HeapEntry near_[kNearCapacity] = {};
  std::uint32_t near_size_ = 0;
  std::vector<HeapEntry> heap_;  ///< min-heap by (when, lane, seq), after the near run
  std::vector<std::uint32_t> pos_;  ///< heap index of each queued slot's entry, or kInNear
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint64_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  /// Wrapping 32-bit sequence window (see HeapEntry::operator>).
  std::uint32_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  /// Slot currently executing inside run_slot (kNoSlot otherwise).
  std::uint32_t firing_slot_ = kNoSlot;
  EventQueueStats stats_;
};

}  // namespace hpcs::sim
