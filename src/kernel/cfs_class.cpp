#include "kernel/cfs_class.h"

#include <algorithm>

#include "common/check.h"
#include "kernel/kernel.h"

namespace hpcs::kern {

HPCS_ASSERT_SCHED_CLASS(CfsClass);

namespace {

CfsKey key_of(const Task& t) { return {t.vruntime.ns(), t.pid()}; }

/// The first entry whose key is not above `key` (the queue is descending).
auto position_of(std::vector<std::pair<CfsKey, Task*>>& q, const CfsKey& key) {
  return std::lower_bound(q.begin(), q.end(), key,
                          [](const auto& e, const CfsKey& k) { return e.first > k; });
}

/// Insert `t` at its key's place; fails the run if the key is queued.
void insert(CfsRq& c, Task& t, const char* duplicate_msg) {
  const CfsKey key = key_of(t);
  const auto it = position_of(c.queue, key);
  HPCS_CHECK_MSG(it == c.queue.end() || it->first != key, duplicate_msg);
  c.queue.emplace(it, key, &t);
}

}  // namespace

CfsRq& CfsClass::crq(Rq& rq, int index) {
  return static_cast<CfsRq&>(*rq.class_rqs[static_cast<std::size_t>(index)]);
}

std::int64_t CfsClass::nice_to_weight(int nice) {
  // The canonical kernel prio_to_weight[] table (nice -20 .. +19).
  static constexpr std::int64_t kWeights[40] = {
      88761, 71755, 56483, 46273, 36291, 29154, 23254, 18705, 14949, 11916,
      9548,  7620,  6100,  4904,  3906,  3121,  2501,  1991,  1586,  1277,
      1024,  820,   655,   526,   423,   335,   272,   215,   172,   137,
      110,   87,    70,    56,    45,    36,    29,    23,    18,    15};
  const int idx = std::clamp(nice, -20, 19) + 20;
  return kWeights[idx];
}

Duration CfsClass::slice_for(int nr_running) const {
  if (nr_running <= 0) nr_running = 1;
  const Duration slice = tun_.latency / nr_running;
  return std::max(slice, kMinGranularity);
}

void CfsClass::update_min_vruntime(CfsRq& c, const Task* curr_of_class) const {
  Duration candidate = Duration::max();
  if (curr_of_class != nullptr) candidate = curr_of_class->vruntime;
  if (!c.queue.empty()) candidate = std::min(candidate, Duration(c.queue.back().first.first));
  if (candidate != Duration::max()) {
    c.min_vruntime = std::max(c.min_vruntime, candidate);
  }
}

void CfsClass::enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) {
  (void)k;
  (void)wakeup;
  CfsRq& c = crq(rq, index());
  // Sleeper credit: grant a waking task up to half a latency period of
  // vruntime headroom so interactive tasks get scheduled promptly, but never
  // let vruntime move backwards. A migrated or policy-switched task is
  // normalized into this queue's window by the same bound.
  t.vruntime = std::max(t.vruntime, c.min_vruntime - tun_.latency / 2);
  insert(c, t, "duplicate task in CFS tree");
  update_min_vruntime(c, nullptr);
}

void CfsClass::dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) {
  (void)k;
  (void)sleep;
  CfsRq& c = crq(rq, index());
  // A running task was already removed from the queue by pick_next.
  const CfsKey key = key_of(t);
  const auto it = position_of(c.queue, key);
  if (it != c.queue.end() && it->first == key) c.queue.erase(it);
  const Task* curr = (rq.curr != nullptr && owns(rq.curr->policy()) && rq.curr != &t)
                         ? rq.curr
                         : nullptr;
  update_min_vruntime(c, curr);
}

Task* CfsClass::pick_next(Kernel& k, Rq& rq) {
  (void)k;
  CfsRq& c = crq(rq, index());
  if (c.queue.empty()) return nullptr;
  Task* t = c.queue.back().second;
  c.queue.pop_back();
  return t;
}

void CfsClass::put_prev(Kernel& k, Rq& rq, Task& t) {
  (void)k;
  CfsRq& c = crq(rq, index());
  insert(c, t, "put_prev: duplicate task in CFS tree");
  update_min_vruntime(c, nullptr);
}

void CfsClass::task_tick(Kernel& k, Rq& rq, Task& t) {
  CfsRq& c = crq(rq, index());
  update_min_vruntime(c, &t);
  const int nr = static_cast<int>(c.queue.size()) + 1;
  if (nr < 2) return;  // nothing else to run
  const Duration slice = slice_for(nr);
  const Duration delta_exec = k.now() - t.last_dispatch;
  if (delta_exec > slice) {
    rq.need_resched = true;
    return;
  }
  // Bound the wait of a markedly "more deserving" leftmost task.
  if (!c.queue.empty()) {
    const Duration vdiff = t.vruntime - Duration(c.queue.back().first.first);
    if (vdiff > slice && delta_exec > kMinGranularity) rq.need_resched = true;
  }
}

void CfsClass::replay_task_ticks(Kernel& k, Rq& rq, Task& t, std::int64_t n) {
  // With nothing queued a tick only raises min_vruntime to t's vruntime,
  // which grew monotonically over the replayed ticks: the last one decides.
  (void)k;
  (void)n;
  CfsRq& c = crq(rq, index());
  HPCS_CHECK(c.queue.empty());
  update_min_vruntime(c, &t);
}

bool CfsClass::wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) {
  (void)k;
  (void)rq;
  if (curr.policy() == Policy::kBatch && woken.policy() == Policy::kNormal) return true;
  if (woken.policy() == Policy::kBatch) return false;  // batch never wakeup-preempts
  const Duration vdiff = curr.vruntime - woken.vruntime;
  return vdiff > kWakeupGranularity;
}

void CfsClass::yield(Kernel& k, Rq& rq, Task& t) {
  // Charge the yielding task the slice it declined so it moves rightward.
  (void)k;
  CfsRq& c = crq(rq, index());
  const int nr = static_cast<int>(c.queue.size()) + 1;
  t.vruntime += slice_for(nr);
}

Task* CfsClass::steal_candidate(Kernel& k, Rq& rq) {
  (void)k;
  CfsRq& c = crq(rq, index());
  // Pull from the tail (largest vruntime): the task that would run last here
  // loses the least by migrating — mirrors the kernel pulling cache-cold work.
  for (const auto& [key, t] : c.queue) {
    if (t->pinned_cpu == kInvalidCpu) return t;
  }
  return nullptr;
}

}  // namespace hpcs::kern
