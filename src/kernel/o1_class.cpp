#include "kernel/o1_class.h"

#include <algorithm>

#include "common/check.h"
#include "kernel/kernel.h"

namespace hpcs::kern {

HPCS_ASSERT_SCHED_CLASS(O1Class);

O1Rq& O1Class::orq(Rq& rq, int index) {
  return static_cast<O1Rq&>(*rq.class_rqs[static_cast<std::size_t>(index)]);
}

O1TaskState& O1Class::state(const Task& t) { return states_[t.pid()]; }

void O1Class::push(O1Rq::PrioArray& a, int level, Task* t, bool front) {
  auto& q = a.queues[static_cast<std::size_t>(level)];
  if (front) {
    q.push_front(t);
  } else {
    q.push_back(t);
  }
  a.bitmap |= (std::uint64_t{1} << level);
  ++a.nr;
}

bool O1Class::erase(O1Rq::PrioArray& a, int level, Task* t) {
  auto& q = a.queues[static_cast<std::size_t>(level)];
  const auto it = std::find(q.begin(), q.end(), t);
  if (it == q.end()) return false;
  q.erase(it);
  if (q.empty()) a.bitmap &= ~(std::uint64_t{1} << level);
  --a.nr;
  return true;
}

int O1Class::dynamic_level(const Task& t) const {
  const auto it = states_.find(t.pid());
  int bonus = 0;
  if (it != states_.end()) {
    // bonus = sleep_avg / kMaxSleepAvg * (2*kMaxBonus) - kMaxBonus, i.e. a
    // task that sleeps a lot gets up to -kMaxBonus levels (better), a task
    // that never sleeps up to +kMaxBonus (worse).
    const double frac = std::clamp(it->second.sleep_avg / kMaxSleepAvg, 0.0, 1.0);
    bonus = static_cast<int>(frac * 2 * kMaxBonus) - kMaxBonus;
  }
  // SCHED_BATCH never receives an interactivity boost.
  if (t.policy() == Policy::kBatch && bonus < 0) bonus = 0;
  return std::clamp(static_level(t.nice) - bonus, 0, kO1Levels - 1);
}

Duration O1Class::timeslice(const Task& t) const {
  // Higher-priority (lower nice) tasks get longer slices, like the 2.6
  // task_timeslice(): nice -20 -> 2x base, nice 0 -> base, nice 19 -> min.
  const double scale = static_cast<double>(kO1Levels - static_level(t.nice)) / 20.0;
  const Duration slice = Duration(static_cast<std::int64_t>(
      static_cast<double>(kBaseSlice.ns()) * scale));
  return std::max(kMinSlice, slice);
}

bool O1Class::interactive(const Task& t) const {
  const auto it = states_.find(t.pid());
  if (it == states_.end()) return false;
  // Roughly the kernel's TASK_INTERACTIVE test: a strongly negative bonus.
  return it->second.sleep_avg > kMaxSleepAvg / 2 && t.policy() != Policy::kBatch;
}

void O1Class::enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) {
  O1Rq& r = orq(rq, index());
  O1TaskState& s = state(t);
  if (wakeup) {
    // Credit the sleep into sleep_avg (capped).
    const Duration slept = k.now() - s.sleep_since;
    s.sleep_avg = std::min(kMaxSleepAvg, s.sleep_avg + slept);
    if (t.slice_left <= Duration::zero()) t.slice_left = timeslice(t);
  }
  if (t.slice_left <= Duration::zero()) t.slice_left = timeslice(t);
  s.in_expired = false;
  push(r.arrays[r.active], dynamic_level(t), &t, /*front=*/false);
}

void O1Class::dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) {
  O1Rq& r = orq(rq, index());
  O1TaskState& s = state(t);
  // The task may sit on either array, and its dynamic level may have moved:
  // search its current level first, then scan (rare path).
  const int level = dynamic_level(t);
  bool erased = erase(r.arrays[0], level, &t) || erase(r.arrays[1], level, &t);
  if (!erased) {
    for (int a = 0; a < 2 && !erased; ++a) {
      for (int l = 0; l < kO1Levels && !erased; ++l) {
        erased = erase(r.arrays[a], l, &t);
      }
    }
  }
  if (sleep) {
    s.sleep_since = k.now();
    // Decay: running consumed sleep_avg proportionally to the time on CPU
    // since the last sleep; approximate with the elapsed slice.
    const Duration consumed = timeslice(t) - std::max(Duration::zero(), t.slice_left);
    s.sleep_avg = std::max(Duration::zero(), s.sleep_avg - consumed);
  }
}

Task* O1Class::pick_next(Kernel& k, Rq& rq) {
  (void)k;
  O1Rq& r = orq(rq, index());
  auto& active = r.arrays[r.active];
  if (active.nr == 0) {
    auto& expired = r.arrays[r.active ^ 1];
    if (expired.nr == 0) return nullptr;
    // The O(1) trick: swap the array indices, no list walking.
    r.active ^= 1;
    ++r.swaps;
  }
  auto& a = r.arrays[r.active];
  HPCS_CHECK(a.bitmap != 0);
  const int level = __builtin_ctzll(a.bitmap);
  Task* t = a.queues[static_cast<std::size_t>(level)].front();
  erase(a, level, t);
  return t;
}

void O1Class::put_prev(Kernel& k, Rq& rq, Task& t) {
  (void)k;
  O1Rq& r = orq(rq, index());
  O1TaskState& s = state(t);
  if (t.slice_left <= Duration::zero()) {
    // Slice expired: interactive tasks are re-queued on the active array
    // (they keep responding), others rotate into the expired array.
    t.slice_left = timeslice(t);
    if (interactive(t)) {
      push(r.arrays[r.active], dynamic_level(t), &t, /*front=*/false);
      s.in_expired = false;
    } else {
      push(r.arrays[r.active ^ 1], dynamic_level(t), &t, /*front=*/false);
      s.in_expired = true;
    }
  } else {
    push(r.arrays[r.active], dynamic_level(t), &t, /*front=*/true);
    s.in_expired = false;
  }
}

void O1Class::task_tick(Kernel& k, Rq& rq, Task& t) {
  t.slice_left -= k.tick_period();
  if (t.slice_left <= Duration::zero()) {
    O1Rq& r = orq(rq, index());
    // Reschedule if anyone else is runnable (either array).
    if (r.arrays[0].nr + r.arrays[1].nr > 0) {
      rq.need_resched = true;
    } else {
      t.slice_left = timeslice(t);
    }
  }
}

bool O1Class::wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) {
  (void)k;
  (void)rq;
  return dynamic_level(woken) < dynamic_level(curr);
}

void O1Class::yield(Kernel& k, Rq& rq, Task& t) {
  (void)k;
  (void)rq;
  t.slice_left = Duration::zero();  // expires into the expired array
}

Task* O1Class::steal_candidate(Kernel& k, Rq& rq) {
  (void)k;
  O1Rq& r = orq(rq, index());
  // Prefer expired tasks (cache-cold), lowest priority first.
  for (int a : {r.active ^ 1, r.active}) {
    for (int l = kO1Levels - 1; l >= 0; --l) {
      for (Task* t : r.arrays[a].queues[static_cast<std::size_t>(l)]) {
        if (t->pinned_cpu == kInvalidCpu) return t;
      }
    }
  }
  return nullptr;
}

}  // namespace hpcs::kern
