#include "hpcsched/hpc_class.h"

#include <algorithm>

#include "common/check.h"
#include "kernel/kernel.h"
#include "obs/recorder.h"

namespace hpcs::hpc {

HPCS_ASSERT_SCHED_CLASS(HpcSchedClass);

HpcSchedClass::HpcSchedClass(HpcTunables tunables, std::unique_ptr<Heuristic> heuristic,
                             std::unique_ptr<Mechanism> mechanism)
    : tun_(tunables), heuristic_(std::move(heuristic)), mechanism_(std::move(mechanism)) {
  HPCS_CHECK(heuristic_ != nullptr && mechanism_ != nullptr);
  HPCS_CHECK_MSG(tun_.min_prio >= 1 && tun_.max_prio <= 6 && tun_.min_prio <= tun_.max_prio,
                 "HPC priority range must stay within the supervisor range [1,6]");
}

HpcRq& HpcSchedClass::hrq(kern::Rq& rq, int index) {
  return static_cast<HpcRq&>(*rq.class_rqs[static_cast<std::size_t>(index)]);
}

void HpcSchedClass::enqueue(kern::Kernel& k, kern::Rq& rq, kern::Task& t, bool wakeup) {
  hrq(rq, index()).queue.push_back(&t);
  if (t.policy() == kern::Policy::kHpcRr && t.slice_left <= Duration::zero()) {
    t.slice_left = tun_.rr_slice;
  }
  if (!wakeup) return;

  // Wakeup = beginning of a new iteration: account the waiting phase, close
  // iteration i and (unless the application is balanced) apply the priority
  // the heuristic picks for iteration i+1 (paper §IV-B).
  const auto sample = tracker_.on_wakeup(t.pid(), k.now());
  if (sample.has_value()) on_iteration_complete(k, t, *sample);
}

void HpcSchedClass::on_iteration_complete(kern::Kernel& k, kern::Task& t,
                                          const IterationSample& sample) {
  ++iterations_;
  HPCS_TRACEPOINT(k.obs(), obs::TpId::kTpHpcIteration, k.now());
  TaskIterStats* s = tracker_.stats_mutable(t.pid());
  HPCS_CHECK(s != nullptr);

  if (detector_.behaviour_changed(*s, tun_)) {
    tracker_.reset_history(t.pid());
    ++resets_;
    HPCS_TRACEPOINT(k.obs(), obs::TpId::kTpHpcHistoryReset, k.now());
  }

  const double metric = heuristic_->metric(*s, tun_);
  // The detector judges balance from the freshest signal (the iteration that
  // just completed); the heuristic classifies with its own, possibly
  // history-weighted metric.
  detector_.record(t.pid(), sample.util_last);

  if (kern::TraceSink* sink = k.trace()) {
    sink->on_iteration(k.now(), t, sample.iteration, sample.util_last, metric);
  }

  // In a stable (balanced) state the detector suppresses further priority
  // changes so the scheduler does not oscillate between two solutions.
  if (detector_.balanced(tun_)) return;

  HPCS_TRACEPOINT(k.obs(), obs::TpId::kTpHpcImbalance, k.now());

  const int target = classify_priority(metric, tun_);
  if (mechanism_->read(t) != target) {
    if (mechanism_->apply(k, t, target)) {
      ++prio_changes_;
      HPCS_TRACEPOINT(k.obs(), obs::TpId::kTpHpcPrioChange, k.now());
    }
  }
}

void HpcSchedClass::dequeue(kern::Kernel& k, kern::Rq& rq, kern::Task& t, bool sleep) {
  auto& q = hrq(rq, index()).queue;
  const auto it = std::find(q.begin(), q.end(), &t);
  if (it != q.end()) q.erase(it);
  if (sleep) {
    // End of the computing phase: bank t_R (paper Fig. 2).
    tracker_.on_run_end(t.pid(), k.now());
    // Keep the tracker history for post-run inspection, but stop counting
    // the task in the balance decision.
    if (t.exited()) detector_.forget(t.pid());
  }
}

kern::Task* HpcSchedClass::pick_next(kern::Kernel& k, kern::Rq& rq) {
  (void)k;
  auto& q = hrq(rq, index()).queue;
  if (q.empty()) return nullptr;
  kern::Task* t = q.front();
  q.erase(q.begin());
  return t;
}

void HpcSchedClass::put_prev(kern::Kernel& k, kern::Rq& rq, kern::Task& t) {
  (void)k;
  auto& q = hrq(rq, index()).queue;
  if (t.policy() == kern::Policy::kHpcRr && t.slice_left <= Duration::zero()) {
    t.slice_left = tun_.rr_slice;
    q.push_back(&t);  // RR: rotate to the tail on slice expiry
  } else {
    q.insert(q.begin(), &t);  // FIFO: keep the head until the task yields or blocks
  }
}

void HpcSchedClass::task_tick(kern::Kernel& k, kern::Rq& rq, kern::Task& t) {
  if (t.policy() != kern::Policy::kHpcRr) return;
  t.slice_left -= k.tick_period();
  if (t.slice_left <= Duration::zero()) {
    if (!hrq(rq, index()).queue.empty()) {
      rq.need_resched = true;
    } else {
      t.slice_left = tun_.rr_slice;
    }
  }
}

void HpcSchedClass::replay_task_ticks(kern::Kernel& k, kern::Rq& rq, kern::Task& t,
                                      std::int64_t n) {
  // The default's n virtual calls, made direct so they inline: FIFO returns
  // at once, RR counts its slice down and refills it.
  if (t.policy() != kern::Policy::kHpcRr) return;
  for (std::int64_t i = 0; i < n; ++i) HpcSchedClass::task_tick(k, rq, t);
}

bool HpcSchedClass::wakeup_preempt(kern::Kernel& k, kern::Rq& rq, kern::Task& curr,
                                   kern::Task& woken) {
  (void)k;
  (void)rq;
  (void)curr;
  (void)woken;
  // Within the HPC class there is no priority notion: FIFO/RR order decides.
  return false;
}

void HpcSchedClass::yield(kern::Kernel& k, kern::Rq& rq, kern::Task& t) {
  (void)k;
  (void)rq;
  t.slice_left = Duration::zero();  // put_prev rotates the task to the tail
}

kern::Task* HpcSchedClass::steal_candidate(kern::Kernel& k, kern::Rq& rq) {
  (void)k;
  auto& q = hrq(rq, index()).queue;
  for (auto it = q.rbegin(); it != q.rend(); ++it) {
    if ((*it)->pinned_cpu == kInvalidCpu) return *it;
  }
  return nullptr;
}

}  // namespace hpcs::hpc
