#pragma once
// The simulation clock + event loop. Single-threaded and deterministic: the
// only sources of ordering are event times and insertion sequence. Distinct
// Simulator instances share no state, so independent experiments can run on
// different threads concurrently (see src/exp/parallel_runner.h).

#include "common/check.h"
#include "common/types.h"
#include "simcore/event_queue.h"

namespace hpcs::sim {

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` to run once, `delay` from now. Delay must be >= 0.
  EventHandle schedule_in(Duration delay, EventCallback cb);

  /// Schedule `cb` at an absolute instant (>= now()); `lane` orders it
  /// against same-instant events (see sim::Lane).
  EventHandle schedule_at(SimTime when, EventCallback cb, Lane lane = Lane::kNormal);

  bool cancel(EventHandle h) { return queue_.cancel(h); }
  [[nodiscard]] bool pending(EventHandle h) const { return queue_.pending(h); }

  /// Install a persistent event (see EventQueue::make_timer); it fires only
  /// once armed.
  Timer make_timer(EventCallback cb, Lane lane = Lane::kNormal) {
    return queue_.make_timer(std::move(cb), lane);
  }
  /// (Re)arm `t` to fire `delay` from now — also from inside its own
  /// callback, which is how recurring events re-arm.
  void arm_in(Timer t, Duration delay) {
    HPCS_CHECK_MSG(delay >= Duration::zero(), "negative event delay");
    queue_.arm(t, now_ + delay);
  }
  /// Same, with an absolute target instant (>= now()).
  void arm_at(Timer t, SimTime when) {
    HPCS_CHECK_MSG(when >= now_, "timer armed in the past");
    queue_.arm(t, when);
  }
  bool cancel(Timer t) { return queue_.cancel(t); }
  [[nodiscard]] bool pending(Timer t) const { return queue_.pending(t); }

  /// Run until the queue drains or `deadline` passes; returns the final time.
  SimTime run(SimTime deadline = SimTime::max());

  /// Execute the earliest event if it fires at or before `deadline`; returns
  /// false (leaving now() unchanged) if the queue is empty or the next event
  /// is later.
  bool step(SimTime deadline = SimTime::max()) { return queue_.run_next(deadline, now_); }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Callbacks run so far (the queue's dispatch count).
  [[nodiscard]] std::uint64_t events_executed() const {
    return static_cast<std::uint64_t>(queue_.stats().dispatched);
  }
  [[nodiscard]] const EventQueueStats& queue_stats() const { return queue_.stats(); }

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
};

}  // namespace hpcs::sim
