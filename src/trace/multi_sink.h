#pragma once
// TraceSink fan-out: the kernel holds exactly one TraceSink pointer, but a
// run may want several observers at once (the tracer behind the PARAVER,
// Gantt and CSV views, and the Chrome-trace capture; the obs Recorder
// attaches through Kernel::set_obs, not as a sink). MultiSink forwards
// every hook to each registered sink in registration order; it does not own
// the sinks.

#include <vector>

#include "kernel/trace_hooks.h"

namespace hpcs::trace {

class MultiSink final : public kern::TraceSink {
 public:
  MultiSink() = default;

  /// Register a sink; null pointers are ignored so callers can pass
  /// optional sinks unconditionally.
  void add(kern::TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  [[nodiscard]] std::size_t size() const { return sinks_.size(); }
  [[nodiscard]] bool empty() const { return sinks_.empty(); }

  void on_switch(SimTime t, CpuId cpu, const kern::Task* prev,
                 const kern::Task* next) override {
    for (kern::TraceSink* s : sinks_) s->on_switch(t, cpu, prev, next);
  }
  void on_state(SimTime t, const kern::Task& task, kern::TaskState new_state) override {
    for (kern::TraceSink* s : sinks_) s->on_state(t, task, new_state);
  }
  void on_hw_prio(SimTime t, const kern::Task& task, p5::HwPrio prio) override {
    for (kern::TraceSink* s : sinks_) s->on_hw_prio(t, task, prio);
  }
  void on_wakeup_latency(SimTime t, const kern::Task& task, Duration latency) override {
    for (kern::TraceSink* s : sinks_) s->on_wakeup_latency(t, task, latency);
  }
  void on_iteration(SimTime t, const kern::Task& task, int iteration, double util_last,
                    double util_metric) override {
    for (kern::TraceSink* s : sinks_) s->on_iteration(t, task, iteration, util_last, util_metric);
  }

 private:
  std::vector<kern::TraceSink*> sinks_;
};

}  // namespace hpcs::trace
