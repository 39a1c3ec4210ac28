#pragma once
// The simulation clock + event loop. Single-threaded and deterministic: the
// only sources of ordering are event times and insertion sequence. Distinct
// Simulator instances share no state, so independent experiments can run on
// different threads concurrently (see src/exp/parallel_runner.h).

#include "common/types.h"
#include "simcore/event_queue.h"

namespace hpcs::sim {

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` to run `delay` from now. Delay must be >= 0.
  EventHandle schedule_in(Duration delay, EventCallback cb);

  /// Schedule `cb` at an absolute instant (>= now()); `lane` orders it
  /// against same-instant events (see sim::Lane).
  EventHandle schedule_at(SimTime when, EventCallback cb, Lane lane = Lane::kNormal);

  bool cancel(EventHandle h) { return queue_.cancel(h); }
  [[nodiscard]] bool pending(EventHandle h) const { return queue_.pending(h); }

  /// Move an existing event to fire `delay` from now, reusing its callback
  /// (also valid from inside that event's own callback — the recurring-event
  /// fast path). Returns false if the handle is stale; callers fall back to
  /// schedule_in().
  bool reschedule_in(EventHandle h, Duration delay);
  /// Same, with an absolute target instant (>= now()).
  bool reschedule_at(EventHandle h, SimTime when);

  /// Run until the queue drains or `deadline` passes; returns the final time.
  SimTime run(SimTime deadline = SimTime::max());

  /// Execute at most one event; returns false if the queue was empty.
  bool step();

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
