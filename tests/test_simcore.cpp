// Unit and property tests of the discrete-event core: ordering, FIFO
// tie-breaking, cancellation semantics, determinism, and a dispatch path
// that does not allocate.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "simcore/simulator.h"

// This binary replaces the global operator new/delete with a counting pair,
// so a test can assert that a code path, callees included, allocates nothing.
namespace {
std::atomic<std::uint64_t> heap_allocs{0};
}  // namespace

// GCC 12 pairs the free() below with the malloc() in operator new and
// reports the replacement pair as a mismatched new/delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hpcs::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime(30), [&] { order.push_back(3); });
  q.schedule(SimTime(10), [&] { order.push_back(1); });
  q.schedule(SimTime(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(q.pending(h));
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.pending(h));
  EXPECT_FALSE(q.cancel(h));  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime(1), [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.pending(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, SlotRecyclingKeepsHandlesDistinct) {
  EventQueue q;
  EventHandle h1 = q.schedule(SimTime(1), [] {});
  q.pop_and_run();
  // The recycled slot must not make the stale handle valid again.
  EventHandle h2 = q.schedule(SimTime(2), [] {});
  EXPECT_FALSE(q.pending(h1));
  EXPECT_TRUE(q.pending(h2));
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_TRUE(q.cancel(h2));
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  EventHandle a = q.schedule(SimTime(1), [] {});
  q.schedule(SimTime(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime(2));
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator s;
  SimTime seen = SimTime::zero();
  s.schedule_in(Duration(100), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, SimTime(100));
  EXPECT_EQ(s.now(), SimTime(100));
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) s.schedule_in(Duration(10), recur);
  };
  s.schedule_in(Duration(10), recur);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), SimTime(50));
}

TEST(Simulator, RunRespectsDeadline) {
  Simulator s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_in(Duration(i * 10), [&] { ++fired; });
  }
  s.run(SimTime(50));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), SimTime(50));
  s.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator s;
  SimTime when = SimTime::max();
  s.schedule_in(Duration(5), [&] {
    s.schedule_in(Duration::zero(), [&] { when = s.now(); });
  });
  s.run();
  EXPECT_EQ(when, SimTime(5));
}

// Property: a random schedule/cancel workload never fires cancelled events,
// fires everything else exactly once, and in non-decreasing time order.
TEST(EventQueueProperty, RandomScheduleCancelStress) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<EventHandle> handles;
    std::vector<int> fired_count(2000, 0);
    std::vector<bool> cancelled(2000, false);
    SimTime last_fired = SimTime::zero();
    int next_id = 0;

    for (int round = 0; round < 2000; ++round) {
      const double dice = rng.uniform();
      if (dice < 0.6 || q.empty()) {
        const int id = next_id++;
        const SimTime when(rng.uniform_int(0, 100000));
        if (id < 2000) {
          handles.push_back(q.schedule(when, [&fired_count, id] { ++fired_count[static_cast<std::size_t>(id)]; }));
        }
      } else if (dice < 0.8 && !handles.empty()) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
        if (q.cancel(handles[pick])) {
          cancelled[pick] = true;
        }
      }
    }
    // Drain; events may be in the "past" relative to each other but must pop
    // in non-decreasing order.
    while (!q.empty()) {
      const SimTime t = q.next_time();
      EXPECT_GE(t, last_fired);
      last_fired = t;
      q.pop_and_run();
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (cancelled[i]) {
        EXPECT_EQ(fired_count[i], 0) << "cancelled event " << i << " fired";
      } else {
        EXPECT_EQ(fired_count[i], 1) << "event " << i << " fired " << fired_count[i] << " times";
      }
    }
  }
}

TEST(EventQueueReschedule, MovesPendingEventWithoutTouchingCallback) {
  EventQueue q;
  std::vector<int> order;
  EventHandle h = q.schedule(SimTime(10), [&] { order.push_back(1); });
  q.schedule(SimTime(20), [&] { order.push_back(2); });
  EXPECT_TRUE(q.reschedule(h, SimTime(30)));  // 1 now fires after 2
  EXPECT_TRUE(q.pending(h));
  EXPECT_EQ(q.size(), 2u);  // the superseded heap entry is not a live event
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueReschedule, StaleHandleReturnsFalse) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime(1), [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.reschedule(h, SimTime(5)));  // already fired
  EventHandle c = q.schedule(SimTime(1), [] {});
  q.cancel(c);
  EXPECT_FALSE(q.reschedule(c, SimTime(5)));  // cancelled
  EXPECT_FALSE(q.reschedule(EventHandle{}, SimTime(5)));  // default handle
}

TEST(EventQueueReschedule, RearmFromInsideFiringCallback) {
  // The recurring-event fast path: the callback re-arms its own slot and the
  // original handle stays valid across every firing.
  EventQueue q;
  struct State {
    EventQueue* q;
    EventHandle h;
    int fired = 0;
  } st{&q, {}, 0};
  st.h = q.schedule(SimTime(10), [&st] {
    if (++st.fired < 5) {
      ASSERT_TRUE(st.q->reschedule(st.h, SimTime(st.fired * 10 + 10)));
    }
  });
  SimTime last = SimTime::zero();
  while (!q.empty()) last = q.pop_and_run();
  EXPECT_EQ(st.fired, 5);
  EXPECT_EQ(last, SimTime(50));
  EXPECT_FALSE(q.pending(st.h));
}

TEST(EventQueueReschedule, FifoOrderFollowsRescheduleTime) {
  // A rescheduled event ties with later-scheduled events at the same time:
  // reschedule() consumes a fresh sequence number, exactly like the
  // cancel+schedule pair it replaces.
  EventQueue q;
  std::vector<int> order;
  EventHandle h = q.schedule(SimTime(5), [&] { order.push_back(0); });
  q.schedule(SimTime(10), [&] { order.push_back(1); });
  EXPECT_TRUE(q.reschedule(h, SimTime(10)));  // now ties with 1, but later seq
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueueReschedule, CancelThenReuseKeepsGenerationsDistinct) {
  // A slot whose cancelled entry is still lazily parked in the heap must not
  // resurrect the old handle when the slot is eventually recycled.
  EventQueue q;
  EventHandle old = q.schedule(SimTime(50), [] { FAIL() << "cancelled event fired"; });
  q.cancel(old);
  // Drain: the cancelled entry surfaces, the slot is recycled.
  q.schedule(SimTime(1), [] {});
  while (!q.empty()) q.pop_and_run();
  bool fired = false;
  EventHandle fresh = q.schedule(SimTime(60), [&] { fired = true; });
  EXPECT_FALSE(q.pending(old));
  EXPECT_FALSE(q.cancel(old));
  EXPECT_FALSE(q.reschedule(old, SimTime(70)));
  EXPECT_TRUE(q.pending(fresh));
  while (!q.empty()) q.pop_and_run();
  EXPECT_TRUE(fired);
}

TEST(EventQueueClear, ResetsSequenceNumbering) {
  // clear() must reset the FIFO tie-break counter: a reused queue has to
  // behave exactly like a fresh one (determinism contract).
  auto tie_break_order = [](EventQueue& q) {
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) q.schedule(SimTime(7), [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop_and_run();
    return order;
  };
  EventQueue fresh;
  const auto expected = tie_break_order(fresh);
  EventQueue reused;
  reused.schedule(SimTime(1), [] {});
  reused.schedule(SimTime(2), [] {});
  reused.clear();
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(tie_break_order(reused), expected);
}

TEST(EventQueueClear, DropsPendingEventsAndHandles) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(SimTime(5), [&] { fired = true; });
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pending(h));
  EXPECT_FALSE(q.cancel(h));
  EXPECT_FALSE(fired);
}

// --- heap edge cases ---------------------------------------------------------

TEST(EventQueue, SeqWrapPreservesFifo) {
  // 64 simultaneous events whose insertion sequences wrap through
  // UINT32_MAX mid-batch: the wrap-aware tiebreak must keep them FIFO.
  EventQueue q;
  q.set_next_seq_for_test(0xFFFFFFE0u);
  std::vector<int> order;
  const SimTime when(100);
  for (int i = 0; i < 64; ++i) {
    q.schedule(when, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// cancel() and reschedule() leave no dead entry behind: after random
// schedule / cancel / reschedule / in-callback re-arm / pop traffic the heap
// holds exactly the pending events.
TEST(EventQueueProperty, HeapHoldsExactlyThePendingEvents) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<EventHandle> handles;
    bool rearm = false;
    for (int round = 0; round < 3000; ++round) {
      const double dice = rng.uniform();
      const SimTime when(rng.uniform_int(round, round + 5000));
      if (dice < 0.4 || q.empty()) {
        const std::size_t id = handles.size();
        handles.push_back(q.schedule(when, [&q, &handles, &rearm, id] {
          if (rearm) {
            ASSERT_TRUE(q.reschedule(handles[id], SimTime::max() - Duration(1)));
          }
        }));
      } else {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
        if (dice < 0.6) {
          q.cancel(handles[pick]);
        } else if (dice < 0.8) {
          q.reschedule(handles[pick], when);
        } else {
          rearm = rng.uniform() < 0.3;
          q.pop_and_run();
        }
      }
      ASSERT_EQ(q.heap_entries(), q.size()) << "seed " << seed << " round " << round;
    }
    EXPECT_GT(q.stats().resched_pending, 0);
    EXPECT_GT(q.stats().resched_inplace, 0);
  }
}

TEST(EventQueueReschedule, CancelAfterInCallbackRearmKeepsClosureAlive) {
  // The callback re-arms its own event, cancels it, then reads a capture:
  // the closure must survive until the callback returns (the dispatch
  // epilogue destroys it), never be destroyed by cancel() mid-call.
  struct State {
    EventQueue q;
    EventHandle h;
    std::string seen;
  } st;
  // 40 chars: heap-allocated, so a read after the closure died trips ASan.
  st.h = st.q.schedule(SimTime(10), [s = &st, label = std::string(40, 'x')] {
    ASSERT_TRUE(s->q.reschedule(s->h, SimTime(20)));
    ASSERT_TRUE(s->q.cancel(s->h));
    s->seen = label;
  });
  st.q.pop_and_run();
  EXPECT_EQ(st.seen, std::string(40, 'x'));
  EXPECT_TRUE(st.q.empty());
  EXPECT_EQ(st.q.heap_entries(), 0u);
  EXPECT_FALSE(st.q.pending(st.h));
  // The slot was recycled by the epilogue: a new event reuses it cleanly.
  bool fired = false;
  st.q.schedule(SimTime(30), [&fired] { fired = true; });
  st.q.pop_and_run();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, FirstLaneFiresBeforeSameInstantPeers) {
  // kFirst events run ahead of every kNormal event at their instant and,
  // tied among themselves, fire in the order of their last (re)arm: a
  // pending reschedule() and an in-callback re-arm each take a new place.
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime(10), [&order] { order.push_back(0); });
  EventHandle a;
  int a_fired = 0;
  a = q.schedule(
      SimTime(5),
      [&] {
        order.push_back(1);
        if (++a_fired == 1) {
          ASSERT_TRUE(q.reschedule(a, SimTime(20)));
        }
      },
      Lane::kFirst);
  const EventHandle b =
      q.schedule(SimTime(30), [&order] { order.push_back(2); }, Lane::kFirst);
  q.schedule(SimTime(20), [&order] { order.push_back(3); });
  ASSERT_TRUE(q.reschedule(a, SimTime(10)));  // still ahead of event 0 at 10
  ASSERT_TRUE(q.reschedule(b, SimTime(20)));  // `a`, re-armed at 20 later, goes after
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 1, 3}));
}

TEST(EventQueueReschedule, InCallbackSameInstantReArmFiresAfterQueuedPeers) {
  // Re-arming the firing event to its own timestamp must dispatch it again
  // within the same instant, after the events already queued there (its new
  // insertion sequence is larger).
  EventQueue q;
  std::vector<int> order;
  int rearms = 0;
  EventHandle a;
  a = q.schedule(SimTime(100), [&] {
    order.push_back(1);
    if (rearms++ == 0) {
      ASSERT_TRUE(q.reschedule(a, SimTime(100)));
    }
  });
  q.schedule(SimTime(100), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
  EXPECT_EQ(q.stats().resched_inplace, 1);
}

TEST(EventQueueClear, DropsManyPendingEventsAndBehavesFresh) {
  EventQueue q;
  bool fired = false;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(q.schedule(SimTime(100 + i), [&] { fired = true; }));
    handles.push_back(q.schedule(SimTime(50'000'000 + i), [&] { fired = true; }));
  }
  EXPECT_EQ(q.size(), 20u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  for (const EventHandle& h : handles) EXPECT_FALSE(q.pending(h));
  // The cleared queue behaves like a fresh one.
  std::vector<int> order;
  q.schedule(SimTime(20), [&order] { order.push_back(2); });
  q.schedule(SimTime(10), [&order] { order.push_back(1); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Order oracle: the queue fires events exactly in the order of a plain list
// kept sorted by (when, seq), where every schedule() and every successful
// reschedule() — of a pending event or from inside the firing callback —
// takes the next sequence number. Random schedule / cancel / reschedule /
// in-callback re-arm / pop traffic with many same-instant ties; on even
// seeds the queue's u32 sequence starts just below the wrap.
TEST(EventQueueProperty, MatchesReferenceModel) {
  struct Entry {
    std::int64_t when;
    std::uint64_t seq;
    int id;
    bool operator<(const Entry& o) const { return when != o.when ? when < o.when : seq < o.seq; }
  };
  struct Harness {
    EventQueue q;
    std::vector<EventHandle> handles;
    std::vector<int> fired;
    std::vector<Entry> model;  ///< pending events, sorted by (when, seq)
    std::uint64_t next_seq = 0;
    std::int64_t now = 0;
    /// What the next firing callback does: re-arm itself `rearm_delay` on.
    bool rearm = false;
    std::int64_t rearm_delay = 0;

    void model_insert(std::int64_t when, int id) {
      const Entry e{when, next_seq++, id};
      model.insert(std::upper_bound(model.begin(), model.end(), e), e);
    }
    bool model_remove(int id) {
      const auto it =
          std::find_if(model.begin(), model.end(), [id](const Entry& e) { return e.id == id; });
      if (it == model.end()) return false;
      model.erase(it);
      return true;
    }
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Harness h;
    if (seed % 2 == 0) h.q.set_next_seq_for_test(0xFFFFFFFFu - 300);
    auto delay = [&rng] {
      return rng.uniform() < 0.5 ? rng.uniform_int(0, 3) : rng.uniform_int(0, 5000);
    };
    auto pick = [&rng, &h] {
      return static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(h.handles.size()) - 1));
    };
    auto pop = [&h] {
      const Entry next = h.model.front();
      ASSERT_EQ(h.q.next_time(), SimTime(next.when));
      h.model.erase(h.model.begin());
      h.now = next.when;
      if (h.rearm) h.model_insert(h.now + h.rearm_delay, next.id);
      h.q.pop_and_run();
      ASSERT_EQ(h.fired.back(), next.id);
    };
    for (int round = 0; round < 4000; ++round) {
      const double dice = rng.uniform();
      if (dice < 0.4 || h.model.empty()) {
        const int id = static_cast<int>(h.handles.size());
        const std::int64_t when = h.now + delay();
        Harness* hp = &h;
        h.handles.push_back(h.q.schedule(SimTime(when), [hp, id] {
          hp->fired.push_back(id);
          if (hp->rearm) {
            ASSERT_TRUE(hp->q.reschedule(hp->handles[static_cast<std::size_t>(id)],
                                         SimTime(hp->now + hp->rearm_delay)));
          }
        }));
        h.model_insert(when, id);
      } else if (dice < 0.5) {
        const int id = pick();
        EXPECT_EQ(h.q.cancel(h.handles[static_cast<std::size_t>(id)]), h.model_remove(id))
            << "seed " << seed << " round " << round;
      } else if (dice < 0.65) {
        const int id = pick();
        const std::int64_t when = h.now + delay();
        const bool was_pending = h.model_remove(id);
        EXPECT_EQ(h.q.reschedule(h.handles[static_cast<std::size_t>(id)], SimTime(when)),
                  was_pending)
            << "seed " << seed << " round " << round;
        if (was_pending) h.model_insert(when, id);
      } else {
        h.rearm = rng.uniform() < 0.3;
        h.rearm_delay = delay();
        pop();
        if (HasFatalFailure()) FAIL() << "seed " << seed << " round " << round;
      }
      ASSERT_EQ(h.q.size(), h.model.size()) << "seed " << seed << " round " << round;
    }
    h.rearm = false;
    while (!h.model.empty()) {
      pop();
      if (HasFatalFailure()) FAIL() << "seed " << seed << " drain";
    }
    EXPECT_TRUE(h.q.empty());
    EXPECT_GT(h.q.stats().resched_inplace, 0);
    EXPECT_GT(h.q.stats().resched_pending, 0);
  }
}

// Every simulated event goes through schedule/cancel/reschedule/step, so in
// steady state (the slot table and the heap at the live population) none of
// them may allocate. Closures live inline in the slot: one fills the 48-byte
// capacity, one is not trivially copyable (its moves run a manager).
TEST(EventQueue, SteadyStateDispatchDoesNotAllocate) {
  Simulator sim;
  std::int64_t sum = 0;
  std::int64_t ticks = 0;
  const auto shared = std::make_shared<std::int64_t>(0);

  const std::array<std::int64_t, 5> pad{1, 2, 3, 4, 5};
  const auto full = [&sum, pad] { sum += pad[4]; };
  static_assert(sizeof(full) == kEventCallbackCapacity);
  const auto managed = [shared] { ++*shared; };
  static_assert(!std::is_trivially_copyable_v<decltype(managed)>);

  // A recurring event that re-arms its own slot from inside its callback.
  EventHandle tick;
  tick = sim.schedule_in(Duration(2), [&sim, &tick, &ticks] {
    ++ticks;
    sim.reschedule_in(tick, Duration(2));
  });

  std::int64_t rescheduled = 0;
  std::int64_t cancelled = 0;
  const auto round = [&] {
    const EventHandle a = sim.schedule_in(Duration(3), full);
    sim.schedule_at(sim.now() + Duration(5), managed);
    const EventHandle c = sim.schedule_in(Duration(7), [&sum] { sum -= 1000; });
    rescheduled += sim.reschedule_in(a, Duration(4)) ? 1 : 0;
    cancelled += sim.cancel(c) ? 1 : 0;
    while (sim.pending_events() > 1) sim.step();  // all but the tick fired
  };

  for (int i = 0; i < 64; ++i) round();
  const std::uint64_t before = heap_allocs.load(std::memory_order_relaxed);
  constexpr int kRounds = 1000;
  for (int i = 0; i < kRounds; ++i) round();
  const std::uint64_t allocs = heap_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(allocs, 0u);
  const std::int64_t total = 64 + kRounds;
  EXPECT_EQ(rescheduled, total);
  EXPECT_EQ(cancelled, total);
  EXPECT_EQ(sum, 5 * total);
  EXPECT_EQ(*shared, total);
  EXPECT_GT(ticks, total);
  EXPECT_GT(sim.queue_stats().resched_inplace, total);
}

// Determinism: two identical runs produce the identical firing order.
TEST(EventQueueProperty, DeterministicReplay) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      s.schedule_at(SimTime(rng.uniform_int(0, 1000)), [&order, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace hpcs::sim
