#include "simcore/simulator.h"

#include <utility>

#include "common/check.h"

namespace hpcs::sim {

EventHandle Simulator::schedule_in(Duration delay, EventCallback cb) {
  HPCS_CHECK_MSG(delay >= Duration::zero(), "negative event delay");
  return queue_.schedule(now_ + delay, std::move(cb));
}

EventHandle Simulator::schedule_at(SimTime when, EventCallback cb, Lane lane) {
  HPCS_CHECK_MSG(when >= now_, "event scheduled in the past");
  return queue_.schedule(when, std::move(cb), lane);
}

SimTime Simulator::run(SimTime deadline) {
  while (queue_.run_next(deadline, now_)) {
  }
  if (queue_.empty()) return now_;
  now_ = deadline;
  return now_;
}

}  // namespace hpcs::sim
