#include "trace/tracer.h"

#include "common/check.h"

namespace hpcs::trace {
namespace {
const std::vector<Interval> kNoIntervals;
const std::vector<PrioEvent> kNoPrios;
const std::vector<IterationEvent> kNoIters;
}  // namespace

Tracer::PerTask& Tracer::slot(const kern::Task& task, SimTime t) {
  auto [it, inserted] = tasks_.try_emplace(task.pid());
  if (inserted) {
    it->second.open_since = t;
    it->second.open_activity = Activity::kWait;  // tasks are born sleeping
    it->second.has_open = true;
  }
  return it->second;
}

void Tracer::on_state(SimTime t, const kern::Task& task, kern::TaskState new_state) {
  PerTask& p = slot(task, t);
  if (p.exited) return;
  const Activity next = new_state == kern::TaskState::kRunnable ? Activity::kCompute
                                                                : Activity::kWait;
  if (p.has_open && next == p.open_activity && new_state != kern::TaskState::kExited) return;
  if (p.has_open && t > p.open_since) {
    p.intervals.push_back(Interval{p.open_since, t, p.open_activity});
  }
  p.open_since = t;
  p.open_activity = next;
  p.has_open = true;
  if (new_state == kern::TaskState::kExited) {
    p.has_open = false;
    p.exited = true;
  }
}

void Tracer::on_hw_prio(SimTime t, const kern::Task& task, p5::HwPrio prio) {
  slot(task, t).prios.push_back(PrioEvent{t, p5::to_int(prio)});
}

void Tracer::on_iteration(SimTime t, const kern::Task& task, int iteration, double util_last,
                          double util_metric) {
  slot(task, t).iterations.push_back(IterationEvent{t, iteration, util_last, util_metric});
}

void Tracer::finalize(SimTime end) {
  for (auto& [pid, p] : tasks_) {
    if (p.has_open && end > p.open_since) {
      p.intervals.push_back(Interval{p.open_since, end, p.open_activity});
      p.has_open = false;
    }
  }
}

const std::vector<Interval>& Tracer::intervals(Pid pid) const {
  const auto it = tasks_.find(pid);
  return it == tasks_.end() ? kNoIntervals : it->second.intervals;
}

const std::vector<PrioEvent>& Tracer::prio_events(Pid pid) const {
  const auto it = tasks_.find(pid);
  return it == tasks_.end() ? kNoPrios : it->second.prios;
}

const std::vector<IterationEvent>& Tracer::iteration_events(Pid pid) const {
  const auto it = tasks_.find(pid);
  return it == tasks_.end() ? kNoIters : it->second.iterations;
}

double Tracer::compute_fraction(Pid pid, SimTime begin, SimTime end) const {
  HPCS_CHECK(end > begin);
  Duration computing = Duration::zero();
  for (const Interval& iv : intervals(pid)) {
    if (iv.activity != Activity::kCompute) continue;
    const SimTime lo = std::max(iv.begin, begin);
    const SimTime hi = std::min(iv.end, end);
    if (hi > lo) computing += hi - lo;
  }
  return computing / (end - begin);
}

}  // namespace hpcs::trace
