// Unit and property tests of the discrete-event core: ordering, FIFO
// tie-breaking, cancellation semantics, determinism, and a dispatch path
// that does not allocate; and kernel context switches that do not allocate
// either.

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
#include "hpcsched/hpcsched.h"
#include "simcore/simulator.h"
#include "test_util.h"

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

TEST(EventQueueTimer, ArmMovesPendingTimerWithoutTouchingCallback) {
  EventQueue q;
  std::vector<int> order;
  const Timer t = q.make_timer([&] { order.push_back(1); });
  q.arm(t, SimTime(10));
  q.schedule(SimTime(20), [&] { order.push_back(2); });
  q.arm(t, SimTime(30));  // 1 now fires after 2
  EXPECT_TRUE(q.pending(t));
  EXPECT_EQ(q.size(), 2u);  // the superseded entry is not a live event
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueTimer, FiredCancelledAndDefaultTimersAreIdle) {
  EventQueue q;
  const Timer t = q.make_timer([] {});
  EXPECT_FALSE(q.pending(t));  // made idle
  q.arm(t, SimTime(1));
  q.pop_and_run();
  EXPECT_FALSE(q.pending(t));  // already fired
  EXPECT_FALSE(q.cancel(t));
  const Timer c = q.make_timer([] {});
  q.arm(c, SimTime(1));
  EXPECT_TRUE(q.cancel(c));
  EXPECT_FALSE(q.pending(c));  // cancelled
  EXPECT_FALSE(q.cancel(c));
  EXPECT_FALSE(q.pending(Timer{}));  // default timer
  EXPECT_FALSE(q.cancel(Timer{}));
  EXPECT_TRUE(q.empty());
  EXPECT_DEATH(q.arm(Timer{}, SimTime(5)), "non-timer slot");
}

TEST(EventQueueTimer, RearmFromInsideFiringCallback) {
  // The recurring-event path: the callback re-arms its own timer, which
  // stays the same timer across every firing.
  EventQueue q;
  struct State {
    EventQueue* q;
    Timer t;
    int fired = 0;
  } st{&q, {}, 0};
  st.t = q.make_timer([&st] {
    if (++st.fired < 5) st.q->arm(st.t, SimTime(st.fired * 10 + 10));
  });
  q.arm(st.t, SimTime(10));
  SimTime last = SimTime::zero();
  while (!q.empty()) last = q.pop_and_run();
  EXPECT_EQ(st.fired, 5);
  EXPECT_EQ(last, SimTime(50));
  EXPECT_FALSE(q.pending(st.t));
}

TEST(EventQueueTimer, FifoOrderFollowsArmTime) {
  // A re-armed timer ties with later-scheduled events at the same time:
  // arm() consumes a fresh sequence number, exactly like the cancel +
  // schedule pair it replaces.
  EventQueue q;
  std::vector<int> order;
  const Timer t = q.make_timer([&] { order.push_back(0); });
  q.arm(t, SimTime(5));
  q.schedule(SimTime(10), [&] { order.push_back(1); });
  q.arm(t, SimTime(10));  // now ties with 1, but later seq
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueueTimer, CancelThenReuseKeepsGenerationsDistinct) {
  // A cancelled one-shot's slot is recycled — here by a timer — and must not
  // resurrect the old handle.
  EventQueue q;
  EventHandle old = q.schedule(SimTime(50), [] { FAIL() << "cancelled event fired"; });
  q.cancel(old);
  q.schedule(SimTime(1), [] {});
  while (!q.empty()) q.pop_and_run();
  bool fired = false;
  const Timer fresh = q.make_timer([&] { fired = true; });
  q.arm(fresh, SimTime(60));
  EXPECT_FALSE(q.pending(old));
  EXPECT_FALSE(q.cancel(old));
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

// cancel() and arm() leave no dead entry behind: after random schedule /
// cancel / timer arm / in-callback re-arm / pop traffic the near run and the
// heap together hold exactly the pending events, while the population
// crosses the run's capacity both ways.
TEST(EventQueueProperty, NearRunAndHeapHoldExactlyThePendingEvents) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<Timer> timers;
    bool rearm = false;
    std::size_t peak = 0;
    for (int round = 0; round < 3000; ++round) {
      const double dice = rng.uniform();
      const SimTime when(rng.uniform_int(round, round + 5000));
      if (dice < 0.2 || q.empty()) {
        q.schedule(when, [] {});
      } else if (dice < 0.4) {
        const std::size_t id = timers.size();
        timers.push_back(q.make_timer([&q, &timers, &rearm, id] {
          if (rearm) q.arm(timers[id], SimTime::max() - Duration(1));
        }));
        q.arm(timers[id], when);
      } else if (timers.empty()) {
        continue;
      } else {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(timers.size()) - 1));
        if (dice < 0.6) {
          q.cancel(timers[pick]);
        } else if (dice < 0.8) {
          q.arm(timers[pick], when);
        } else {
          rearm = rng.uniform() < 0.3;
          q.pop_and_run();
        }
      }
      peak = std::max(peak, q.size());
      ASSERT_EQ(q.entries(), q.size()) << "seed " << seed << " round " << round;
    }
    EXPECT_GT(peak, 4 * EventQueue::kNearCapacity);
    EXPECT_GT(q.stats().resched_pending, 0);
    EXPECT_GT(q.stats().resched_inplace, 0);
  }
}

TEST(EventQueueTimer, CancelAfterInCallbackRearmLeavesTimerIdle) {
  // The callback re-arms its own timer, cancels it, then reads a capture:
  // the closure is the timer's for life, so it is intact after both, and
  // the timer is idle and reusable afterwards.
  struct State {
    EventQueue q;
    Timer t;
    std::string seen;
    int fired = 0;
  } st;
  // 40 chars: heap-allocated, so a read after the closure died trips ASan.
  st.t = st.q.make_timer([s = &st, label = std::string(40, 'x')] {
    if (++s->fired > 1) return;
    s->q.arm(s->t, SimTime(20));
    ASSERT_TRUE(s->q.cancel(s->t));
    s->seen = label;
  });
  st.q.arm(st.t, SimTime(10));
  st.q.pop_and_run();
  EXPECT_EQ(st.seen, std::string(40, 'x'));
  EXPECT_TRUE(st.q.empty());
  EXPECT_EQ(st.q.entries(), 0u);
  EXPECT_FALSE(st.q.pending(st.t));
  // The timer fires again once re-armed.
  st.q.arm(st.t, SimTime(30));
  st.q.pop_and_run();
  EXPECT_EQ(st.fired, 2);
}

TEST(EventQueue, FirstLaneFiresBeforeSameInstantPeers) {
  // kFirst events run ahead of every kNormal event at their instant and,
  // tied among themselves, fire in the order of their last arm: a pending
  // re-arm and an in-callback re-arm each take a new place.
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime(10), [&order] { order.push_back(0); });
  Timer a;
  int a_fired = 0;
  a = q.make_timer(
      [&] {
        order.push_back(1);
        if (++a_fired == 1) q.arm(a, SimTime(20));
      },
      Lane::kFirst);
  q.arm(a, SimTime(5));
  const Timer b = q.make_timer([&order] { order.push_back(2); }, Lane::kFirst);
  q.arm(b, SimTime(30));
  q.schedule(SimTime(20), [&order] { order.push_back(3); });
  q.arm(a, SimTime(10));  // still ahead of event 0 at 10
  q.arm(b, SimTime(20));  // `a`, re-armed at 20 later, goes after
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 1, 3}));
}

TEST(EventQueueTimer, InCallbackSameInstantReArmFiresAfterQueuedPeers) {
  // Re-arming the firing timer to its own timestamp must dispatch it again
  // within the same instant, after the events already queued there (its new
  // insertion sequence is larger).
  EventQueue q;
  std::vector<int> order;
  int rearms = 0;
  Timer a;
  a = q.make_timer([&] {
    order.push_back(1);
    if (rearms++ == 0) q.arm(a, SimTime(100));
  });
  q.arm(a, SimTime(100));
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
// kept sorted by (when, lane, seq), where every schedule() and every arm() —
// of an idle timer, a pending one or the one whose callback is running —
// takes the next sequence number. Random traffic of one-shots and timers
// (schedule / cancel / arm / in-callback re-arm / a one-shot arming another
// timer / pop) on both lanes, with many same-instant ties. The population
// swings past 4x the near run's capacity and back below 2 several times per
// seed, so entries move between the run and the heap both ways. On even
// seeds the queue's u32 sequence starts just below the wrap. The queue's
// counters must equal the model's count of each kind of arm.
TEST(EventQueueProperty, MatchesReferenceModel) {
  struct Entry {
    std::int64_t when;
    int lane;
    std::uint64_t seq;
    int id;
    bool operator<(const Entry& o) const {
      if (when != o.when) return when < o.when;
      if (lane != o.lane) return lane < o.lane;
      return seq < o.seq;
    }
  };
  struct Harness {
    EventQueue q;
    std::vector<EventHandle> handles;  ///< per id; valid for one-shots
    std::vector<Timer> timers;         ///< per id; valid for timers
    std::vector<int> lanes;            ///< per id
    std::vector<int> fired;
    std::vector<Entry> model;  ///< pending events, sorted
    std::uint64_t next_seq = 0;
    std::int64_t now = 0;
    EventQueueStats expect;
    /// What the next firing callback does: a timer re-arms itself, a
    /// one-shot arms timer `cross` (if >= 0), `rearm_delay` on.
    bool rearm = false;
    std::int64_t rearm_delay = 0;
    int cross = -1;

    [[nodiscard]] bool is_timer(int id) const {
      return timers[static_cast<std::size_t>(id)].valid();
    }
    void model_insert(std::int64_t when, int id) {
      const Entry e{when, lanes[static_cast<std::size_t>(id)], next_seq++, id};
      model.insert(std::upper_bound(model.begin(), model.end(), e), e);
    }
    bool model_remove(int id) {
      const auto it =
          std::find_if(model.begin(), model.end(), [id](const Entry& e) { return e.id == id; });
      if (it == model.end()) return false;
      model.erase(it);
      return true;
    }
    /// The model side of arm(): a fresh sequence, counted by the timer's state.
    void model_arm(std::int64_t when, int id, bool firing) {
      if (model_remove(id)) {
        ++expect.resched_pending;
      } else if (firing) {
        ++expect.resched_inplace;
      } else {
        ++expect.scheduled;
      }
      model_insert(when, id);
    }
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Harness h;
    Harness* hp = &h;
    if (seed % 2 == 0) h.q.set_next_seq_for_test(0xFFFFFFFFu - 300);
    auto delay = [&rng] {
      return rng.uniform() < 0.5 ? rng.uniform_int(0, 3) : rng.uniform_int(0, 5000);
    };
    auto pick = [&rng, &h] {
      return static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(h.lanes.size()) - 1));
    };
    auto pick_timer = [&h, &pick] {
      for (int tries = 0; tries < 8; ++tries) {
        const int id = pick();
        if (h.is_timer(id)) return id;
      }
      return -1;
    };
    auto add = [&h, &rng, hp](bool timer) {
      const int id = static_cast<int>(h.lanes.size());
      h.lanes.push_back(rng.uniform() < 0.1 ? 0 : 1);
      const Lane lane = h.lanes.back() == 0 ? Lane::kFirst : Lane::kNormal;
      h.handles.emplace_back();
      h.timers.emplace_back();
      if (timer) {
        h.timers.back() = h.q.make_timer(
            [hp, id] {
              hp->fired.push_back(id);
              if (hp->rearm) {
                hp->q.arm(hp->timers[static_cast<std::size_t>(id)],
                          SimTime(hp->now + hp->rearm_delay));
              }
            },
            lane);
      }
      return id;
    };
    auto pop = [&h] {
      const Entry next = h.model.front();
      ASSERT_EQ(h.q.next_time(), SimTime(next.when));
      h.model.erase(h.model.begin());
      h.now = next.when;
      if (h.rearm && h.is_timer(next.id)) {
        h.model_arm(h.now + h.rearm_delay, next.id, /*firing=*/true);
      } else if (h.rearm && h.cross >= 0) {
        h.model_arm(h.now + h.rearm_delay, h.cross, /*firing=*/false);
      }
      ++h.expect.dispatched;
      h.q.pop_and_run();
      ASSERT_EQ(h.fired.back(), next.id);
    };
    bool growing = true;
    int grew_past = 0;
    int drained_below = 0;
    for (int round = 0; round < 6000; ++round) {
      if (growing && h.model.size() > 4 * EventQueue::kNearCapacity) {
        growing = false;
        ++grew_past;
      } else if (!growing && h.model.size() < 2) {
        growing = true;
        ++drained_below;
      }
      // Growing: mostly arms. Draining: mostly pops.
      const double dice = rng.uniform();
      const double p_add = growing ? 0.55 : 0.15;
      const double p_cancel = p_add + 0.1;
      const double p_arm = p_cancel + (growing ? 0.2 : 0.1);
      if (dice < p_add || h.model.empty()) {
        const bool timer = rng.uniform() < 0.5;
        const int id = add(timer);
        const std::int64_t when = h.now + delay();
        if (timer) {
          h.q.arm(h.timers[static_cast<std::size_t>(id)], SimTime(when));
          h.model_arm(when, id, /*firing=*/false);
        } else {
          const Lane lane = h.lanes.back() == 0 ? Lane::kFirst : Lane::kNormal;
          h.handles[static_cast<std::size_t>(id)] = h.q.schedule(
              SimTime(when),
              [hp, id] {
                hp->fired.push_back(id);
                if (hp->rearm && hp->cross >= 0) {
                  hp->q.arm(hp->timers[static_cast<std::size_t>(hp->cross)],
                            SimTime(hp->now + hp->rearm_delay));
                }
              },
              lane);
          ++h.expect.scheduled;
          h.model_insert(when, id);
        }
      } else if (dice < p_cancel) {
        const int id = pick();
        const bool cancelled = h.is_timer(id)
                                   ? h.q.cancel(h.timers[static_cast<std::size_t>(id)])
                                   : h.q.cancel(h.handles[static_cast<std::size_t>(id)]);
        EXPECT_EQ(cancelled, h.model_remove(id)) << "seed " << seed << " round " << round;
      } else if (dice < p_arm) {
        const int id = pick_timer();
        if (id < 0) continue;
        const std::int64_t when = h.now + delay();
        h.q.arm(h.timers[static_cast<std::size_t>(id)], SimTime(when));
        h.model_arm(when, id, /*firing=*/false);
      } else {
        h.rearm = rng.uniform() < 0.4;
        h.rearm_delay = delay();
        h.cross = pick_timer();
        if (h.cross >= 0 && h.model.front().id == h.cross) h.cross = -1;
        pop();
        if (HasFatalFailure()) FAIL() << "seed " << seed << " round " << round;
      }
      ASSERT_EQ(h.q.size(), h.model.size()) << "seed " << seed << " round " << round;
      ASSERT_EQ(h.q.entries(), h.q.size()) << "seed " << seed << " round " << round;
    }
    h.rearm = false;
    while (!h.model.empty()) {
      pop();
      if (HasFatalFailure()) FAIL() << "seed " << seed << " drain";
    }
    EXPECT_TRUE(h.q.empty());
    EXPECT_GE(grew_past, 3) << "seed " << seed;
    EXPECT_GE(drained_below, 3) << "seed " << seed;
    EXPECT_GT(h.expect.resched_inplace, 0);
    EXPECT_GT(h.expect.resched_pending, 0);
    EXPECT_EQ(h.q.stats().scheduled, h.expect.scheduled) << "seed " << seed;
    EXPECT_EQ(h.q.stats().resched_pending, h.expect.resched_pending) << "seed " << seed;
    EXPECT_EQ(h.q.stats().resched_inplace, h.expect.resched_inplace) << "seed " << seed;
    EXPECT_EQ(h.q.stats().dispatched, h.expect.dispatched) << "seed " << seed;
  }
}

// Every simulated event goes through schedule/cancel/arm/step, so in steady
// state (the slot table and the heap at the live population) none of them
// may allocate. Closures live inline in the slot: one fills the 48-byte
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

  // A recurring event that re-arms its own timer from inside its callback,
  // and a timer moved while pending.
  Timer tick;
  tick = sim.make_timer([&sim, &tick, &ticks] {
    ++ticks;
    sim.arm_in(tick, Duration(2));
  });
  sim.arm_in(tick, Duration(2));
  const Timer a = sim.make_timer([] {});

  std::int64_t rescheduled = 0;
  std::int64_t cancelled = 0;
  const auto round = [&] {
    sim.schedule_in(Duration(3), full);
    sim.schedule_at(sim.now() + Duration(5), managed);
    const EventHandle c = sim.schedule_in(Duration(7), [&sum] { sum -= 1000; });
    sim.arm_in(a, Duration(3));
    rescheduled += sim.pending(a) ? 1 : 0;
    sim.arm_in(a, Duration(4));
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

// Every context switch goes through the class run queues, so once they hold
// their population, tasks sharing a CPU switch without allocating: CFS and
// SCHED_HPC, RR and FIFO, CPU hogs and periodic sleepers (whose wakeups
// also run HPCSched's iteration tracking).
struct SwitchMix {
  const char* name;
  kern::Policy policy;
  bool periodic;
};

TEST(KernelSteadyState, ContextSwitchesDoNotAllocate) {
  for (const SwitchMix& mix : {SwitchMix{"CFS hogs", kern::Policy::kNormal, false},
                               SwitchMix{"CFS periodic", kern::Policy::kNormal, true},
                               SwitchMix{"HPC RR hogs", kern::Policy::kHpcRr, false},
                               SwitchMix{"HPC FIFO periodic", kern::Policy::kHpcFifo, true}}) {
    test::KernelFixture f;
    hpc::HpcSchedConfig hc;
    hc.tunables.rr_slice = Duration::milliseconds(2);
    hpc::install_hpcsched(f.k(), hc);
    f.k().start();
    for (int i = 0; i < 3; ++i) {
      std::unique_ptr<kern::TaskBody> body;
      if (mix.periodic) {
        body = std::make_unique<test::PeriodicBody>(0.3e6 * (i + 1), Duration::microseconds(400));
      } else {
        body = std::make_unique<test::HogBody>();
      }
      kern::Task& t = f.k().create_task("t" + std::to_string(i), std::move(body), mix.policy, 0);
      f.k().sched_setaffinity(t, 0);
      f.k().start_task(t);
    }
    f.run_until(Duration::milliseconds(100));  // warm-up

    constexpr std::int64_t kSwitches = 1000;
    const std::int64_t start = f.k().context_switches();
    const std::uint64_t before = heap_allocs.load(std::memory_order_relaxed);
    for (int ms = 110; f.k().context_switches() - start < kSwitches && ms <= 60'000; ms += 10) {
      f.run_until(Duration::milliseconds(ms));
    }
    const std::uint64_t allocs = heap_allocs.load(std::memory_order_relaxed) - before;
    const std::int64_t switches = f.k().context_switches() - start;
    EXPECT_GE(switches, kSwitches) << mix.name;
    EXPECT_EQ(allocs, 0u) << mix.name << ": " << allocs << " allocations over " << switches
                          << " switches";
  }
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
