#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "kernel/task.h"
#include "obs/text_file.h"

namespace hpcs::obs {
namespace {

[[nodiscard]] bool is_idle(const kern::Task* t) {
  return t == nullptr || t->policy() == kern::Policy::kIdle;
}

/// ts/dur in microseconds, printed with "%.3f": integer nanoseconds / 1000
/// renders exactly, so output is deterministic across platforms.
[[nodiscard]] double us(SimTime t) { return static_cast<double>(t.ns()) / 1000.0; }
[[nodiscard]] double us(Duration d) { return static_cast<double>(d.ns()) / 1000.0; }

[[nodiscard]] std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Builds the document text. With a file attached, the text is handed to
/// the file whenever it passes kChunk bytes, so a written trace is never
/// resident whole; without one it accumulates for render_chrome_trace.
class Emitter {
 public:
  explicit Emitter(std::FILE* file = nullptr) : file_(file) {}

  void raw(const char* text) { out_ += text; }

  void event(const char* body) {
    if (!first_) out_ += ",\n";
    first_ = false;
    out_ += "  {";
    out_ += body;
    out_ += '}';
    if (file_ != nullptr && out_.size() >= kChunk) flush();
  }

  /// Write the pending text. False once any write came up short; later
  /// text is dropped rather than written after a gap.
  bool flush() {
    if (ok_ && std::fwrite(out_.data(), 1, out_.size(), file_) != out_.size()) ok_ = false;
    out_.clear();
    return ok_;
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;

  std::FILE* file_;
  std::string out_;
  bool first_ = true;
  bool ok_ = true;
};

/// Windowed-series counter tracks ("C" events, one track per column). Flat
/// all-zero columns are skipped — most runs exercise a fraction of the
/// catalogue and 40 dead tracks would bury the interesting ones. Emission
/// order is the fixed column order, so output stays deterministic.
void emit_counter_tracks(Emitter& out, int pid, const MetricsSnapshot& metrics) {
  const WindowedSeries& w = metrics.windows;
  if (!w.enabled() || w.samples.empty()) return;
  char buf[256];
  for (std::size_t c = 0; c < w.int_columns.size(); ++c) {
    bool flat = true;
    for (const WindowSample& s : w.samples) flat = flat && s.ints[c] == 0;
    if (flat) continue;
    for (const WindowSample& s : w.samples) {
      std::snprintf(buf, sizeof(buf),
                    "\"name\":\"win %s\",\"ph\":\"C\",\"pid\":%d,"
                    "\"ts\":%.3f,\"args\":{\"v\":%lld}",
                    esc(w.int_columns[c]).c_str(), pid, us(s.end),
                    static_cast<long long>(s.ints[c]));
      out.event(buf);
    }
  }
  for (std::size_t c = 0; c < w.real_columns.size(); ++c) {
    bool flat = true;
    for (const WindowSample& s : w.samples) flat = flat && s.reals[c] == 0.0;
    if (flat) continue;
    for (const WindowSample& s : w.samples) {
      std::snprintf(buf, sizeof(buf),
                    "\"name\":\"win %s\",\"ph\":\"C\",\"pid\":%d,"
                    "\"ts\":%.3f,\"args\":{\"v\":%.10g}",
                    esc(w.real_columns[c]).c_str(), pid, us(s.end), s.reals[c]);
      out.event(buf);
    }
  }
}

/// One run as process `pid`: naming metadata, then every slice, every
/// priority sample and every iteration mark in capture order, then the
/// windowed counter tracks.
void emit_run(Emitter& out, int pid, const ChromeTraceRun& run) {
  const ChromeTraceSink& sink = *run.sink;
  char buf[256];

  std::snprintf(buf, sizeof(buf),
                "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                "\"args\":{\"name\":\"%s\"}",
                pid, esc(run.name).c_str());
  out.event(buf);

  int max_cpu = -1;
  for (const ChromeTraceSink::Slice& s : sink.slices()) max_cpu = std::max(max_cpu, s.cpu);
  for (int cpu = 0; cpu <= max_cpu; ++cpu) {
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                  "\"args\":{\"name\":\"cpu %d\"}",
                  pid, cpu, cpu);
    out.event(buf);
  }

  for (const ChromeTraceSink::Slice& s : sink.slices()) {
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"pid\":%d}",
                  esc(s.name).c_str(), pid, s.cpu, us(s.begin), us(s.end - s.begin), s.pid);
    out.event(buf);
  }

  for (const ChromeTraceSink::PrioSample& p : sink.prio_samples()) {
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"hw_prio %s\",\"ph\":\"C\",\"pid\":%d,"
                  "\"ts\":%.3f,\"args\":{\"prio\":%d}",
                  esc(p.task).c_str(), pid, us(p.when), p.prio);
    out.event(buf);
  }

  // One iteration track per task, named in first-appearance order just
  // before the first instant.
  const std::vector<ChromeTraceSink::IterationMark>& iters = sink.iterations();
  std::vector<const ChromeTraceSink::IterationMark*> tracks;
  for (const ChromeTraceSink::IterationMark& m : iters) {
    bool seen = false;
    for (const ChromeTraceSink::IterationMark* t : tracks) seen = seen || t->pid == m.pid;
    if (!seen) tracks.push_back(&m);
  }
  for (const ChromeTraceSink::IterationMark* t : tracks) {
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                  "\"args\":{\"name\":\"%s iterations\"}",
                  pid, 10000 + t->pid, esc(t->task).c_str());
    out.event(buf);
  }
  for (const ChromeTraceSink::IterationMark& m : iters) {
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"iter %d\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
                  "\"tid\":%d,\"ts\":%.3f,"
                  "\"args\":{\"task\":\"%s\",\"util_last\":%.10g,\"util_metric\":%.10g}",
                  m.iteration, pid, 10000 + m.pid, us(m.when), esc(m.task).c_str(),
                  m.util_last, m.util_metric);
    out.event(buf);
  }

  if (run.metrics != nullptr) emit_counter_tracks(out, pid, *run.metrics);
}

void emit_document(Emitter& out, const std::vector<ChromeTraceRun>& runs) {
  out.raw("{\"traceEvents\": [\n");
  for (std::size_t r = 0; r < runs.size(); ++r) emit_run(out, static_cast<int>(r) + 1, runs[r]);
  out.raw("\n], \"displayTimeUnit\": \"ms\"}\n");
}

}  // namespace

void ChromeTraceSink::on_switch(SimTime t, CpuId cpu, const kern::Task* prev,
                                const kern::Task* next) {
  (void)prev;  // the open slice already knows who is leaving
  if (cpu >= static_cast<CpuId>(open_.size())) {
    open_.resize(static_cast<std::size_t>(cpu) + 1);
  }
  OpenSlice& o = open_[static_cast<std::size_t>(cpu)];
  if (o.open) {
    slices_.push_back(Slice{cpu, o.pid, o.name, o.begin, t});
    o.open = false;
  }
  if (!is_idle(next)) {
    o.open = true;
    o.pid = next->pid();
    o.name = next->name();
    o.begin = t;
  }
}

void ChromeTraceSink::on_hw_prio(SimTime t, const kern::Task& task, p5::HwPrio prio) {
  prios_.push_back(PrioSample{task.pid(), task.name(), t, static_cast<int>(prio)});
}

void ChromeTraceSink::on_iteration(SimTime t, const kern::Task& task, int iteration,
                                   double util_last, double util_metric) {
  iters_.push_back(IterationMark{task.pid(), task.name(), t, iteration, util_last, util_metric});
}

void ChromeTraceSink::finalize(SimTime end) {
  for (std::size_t cpu = 0; cpu < open_.size(); ++cpu) {
    OpenSlice& o = open_[cpu];
    if (!o.open) continue;
    slices_.push_back(Slice{static_cast<CpuId>(cpu), o.pid, o.name, o.begin, end});
    o.open = false;
  }
}

std::string render_chrome_trace(const std::vector<ChromeTraceRun>& runs) {
  Emitter out;
  emit_document(out, runs);
  return out.take();
}

bool write_chrome_trace(const std::string& path, const std::vector<ChromeTraceRun>& runs) {
  return write_text_file(path, [&runs](std::FILE* f) {
    Emitter out(f);
    emit_document(out, runs);
    return out.flush();
  });
}

}  // namespace hpcs::obs
