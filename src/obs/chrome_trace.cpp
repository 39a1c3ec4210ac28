#include "obs/chrome_trace.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "kernel/task.h"

namespace hpcs::obs {
namespace {

[[nodiscard]] bool is_idle(const kern::Task* t) {
  return t == nullptr || t->policy() == kern::Policy::kIdle;
}

/// ts/dur in microseconds with fixed precision: integer nanoseconds / 1000
/// renders exactly, so output is deterministic across platforms.
[[nodiscard]] std::string us(SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t.ns()) / 1000.0);
  return buf;
}

[[nodiscard]] std::string us(Duration d) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(d.ns()) / 1000.0);
  return buf;
}

[[nodiscard]] std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void append_event(std::string& out, bool& first, const std::string& body) {
  if (!first) out += ",\n";
  first = false;
  out += "  {" + body + "}";
}

// --- streaming spool frame encoding (private, native-endian) ---------------

enum : std::uint8_t { kFrameSlice = 0, kFramePrio = 1, kFrameIter = 2 };

void put_bytes(std::FILE* f, const void* p, std::size_t n, std::size_t& bytes) {
  HPCS_CHECK_MSG(std::fwrite(p, 1, n, f) == n, "chrome trace spool write failed");
  bytes += n;
}

template <typename T>
void put_pod(std::FILE* f, const T& v, std::size_t& bytes) {
  put_bytes(f, &v, sizeof(T), bytes);
}

void put_str(std::FILE* f, const std::string& s, std::size_t& bytes) {
  const auto len = static_cast<std::uint32_t>(s.size());
  put_pod(f, len, bytes);
  put_bytes(f, s.data(), s.size(), bytes);
}

template <typename T>
[[nodiscard]] T get_pod(std::FILE* f) {
  T v{};
  HPCS_CHECK_MSG(std::fread(&v, 1, sizeof(T), f) == sizeof(T),
                 "chrome trace spool truncated");
  return v;
}

[[nodiscard]] std::string get_str(std::FILE* f) {
  const auto len = get_pod<std::uint32_t>(f);
  std::string s(len, '\0');
  if (len != 0) {
    HPCS_CHECK_MSG(std::fread(s.data(), 1, len, f) == len,
                   "chrome trace spool truncated");
  }
  return s;
}

}  // namespace

// --- buffered sink ---------------------------------------------------------

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

void ChromeTraceSink::replay(Visitor& v) {
  for (const Slice& s : slices_) v.on_slice(s);
  for (const PrioSample& p : prios_) v.on_prio(p);
  for (const IterationMark& m : iters_) v.on_iteration(m);
}

// --- streaming sink --------------------------------------------------------

ChromeTraceStreamSink::ChromeTraceStreamSink() : spool_(std::tmpfile()) {
  HPCS_CHECK_MSG(spool_ != nullptr, "cannot create chrome trace spool file");
}

ChromeTraceStreamSink::~ChromeTraceStreamSink() {
  if (spool_ != nullptr) std::fclose(spool_);  // tmpfile: unlinked, auto-deleted
}

void ChromeTraceStreamSink::put_slice(const Slice& s) {
  put_pod(spool_, static_cast<std::uint8_t>(kFrameSlice), spool_bytes_);
  put_pod(spool_, static_cast<std::int32_t>(s.cpu), spool_bytes_);
  put_pod(spool_, static_cast<std::int32_t>(s.pid), spool_bytes_);
  put_pod(spool_, s.begin.ns(), spool_bytes_);
  put_pod(spool_, s.end.ns(), spool_bytes_);
  put_str(spool_, s.name, spool_bytes_);
  ++spooled_records_;
}

void ChromeTraceStreamSink::put_prio(const PrioSample& p) {
  put_pod(spool_, static_cast<std::uint8_t>(kFramePrio), spool_bytes_);
  put_pod(spool_, static_cast<std::int32_t>(p.pid), spool_bytes_);
  put_pod(spool_, p.when.ns(), spool_bytes_);
  put_pod(spool_, static_cast<std::int32_t>(p.prio), spool_bytes_);
  put_str(spool_, p.task, spool_bytes_);
  ++spooled_records_;
}

void ChromeTraceStreamSink::put_iter(const IterationMark& m) {
  put_pod(spool_, static_cast<std::uint8_t>(kFrameIter), spool_bytes_);
  put_pod(spool_, static_cast<std::int32_t>(m.pid), spool_bytes_);
  put_pod(spool_, m.when.ns(), spool_bytes_);
  put_pod(spool_, static_cast<std::int32_t>(m.iteration), spool_bytes_);
  put_pod(spool_, m.util_last, spool_bytes_);
  put_pod(spool_, m.util_metric, spool_bytes_);
  put_str(spool_, m.task, spool_bytes_);
  ++spooled_records_;
}

void ChromeTraceStreamSink::on_switch(SimTime t, CpuId cpu, const kern::Task* prev,
                                      const kern::Task* next) {
  (void)prev;
  HPCS_CHECK_MSG(!replaying_, "chrome trace capture after replay");
  if (cpu >= static_cast<CpuId>(open_.size())) {
    open_.resize(static_cast<std::size_t>(cpu) + 1);
  }
  OpenSlice& o = open_[static_cast<std::size_t>(cpu)];
  if (o.open) {
    put_slice(Slice{cpu, o.pid, o.name, o.begin, t});
    o.open = false;
  }
  if (!is_idle(next)) {
    o.open = true;
    o.pid = next->pid();
    o.name = next->name();
    o.begin = t;
  }
}

void ChromeTraceStreamSink::on_hw_prio(SimTime t, const kern::Task& task, p5::HwPrio prio) {
  HPCS_CHECK_MSG(!replaying_, "chrome trace capture after replay");
  put_prio(PrioSample{task.pid(), task.name(), t, static_cast<int>(prio)});
}

void ChromeTraceStreamSink::on_iteration(SimTime t, const kern::Task& task, int iteration,
                                         double util_last, double util_metric) {
  HPCS_CHECK_MSG(!replaying_, "chrome trace capture after replay");
  put_iter(IterationMark{task.pid(), task.name(), t, iteration, util_last, util_metric});
}

void ChromeTraceStreamSink::finalize(SimTime end) {
  for (std::size_t cpu = 0; cpu < open_.size(); ++cpu) {
    OpenSlice& o = open_[cpu];
    if (!o.open) continue;
    put_slice(Slice{static_cast<CpuId>(cpu), o.pid, o.name, o.begin, end});
    o.open = false;
  }
}

void ChromeTraceStreamSink::replay(Visitor& v) {
  replaying_ = true;
  HPCS_CHECK_MSG(std::fflush(spool_) == 0, "chrome trace spool flush failed");
  // One sequential pass per record kind keeps the grouped capture order of
  // the buffered sink (all slices, then prios, then iterations) while the
  // spool holds them interleaved.
  for (std::uint8_t want = kFrameSlice; want <= kFrameIter; ++want) {
    HPCS_CHECK_MSG(std::fseek(spool_, 0, SEEK_SET) == 0, "chrome trace spool seek failed");
    for (std::size_t i = 0; i < spooled_records_; ++i) {
      const auto kind = get_pod<std::uint8_t>(spool_);
      switch (kind) {
        case kFrameSlice: {
          Slice s;
          s.cpu = get_pod<std::int32_t>(spool_);
          s.pid = get_pod<std::int32_t>(spool_);
          s.begin = SimTime(get_pod<std::int64_t>(spool_));
          s.end = SimTime(get_pod<std::int64_t>(spool_));
          s.name = get_str(spool_);
          if (kind == want) v.on_slice(s);
          break;
        }
        case kFramePrio: {
          PrioSample p;
          p.pid = get_pod<std::int32_t>(spool_);
          p.when = SimTime(get_pod<std::int64_t>(spool_));
          p.prio = get_pod<std::int32_t>(spool_);
          p.task = get_str(spool_);
          if (kind == want) v.on_prio(p);
          break;
        }
        case kFrameIter: {
          IterationMark m;
          m.pid = get_pod<std::int32_t>(spool_);
          m.when = SimTime(get_pod<std::int64_t>(spool_));
          m.iteration = get_pod<std::int32_t>(spool_);
          m.util_last = get_pod<double>(spool_);
          m.util_metric = get_pod<double>(spool_);
          m.task = get_str(spool_);
          if (kind == want) v.on_iteration(m);
          break;
        }
        default: HPCS_CHECK_MSG(false, "chrome trace spool corrupt");
      }
    }
  }
}

// --- rendering -------------------------------------------------------------

namespace {

/// Pass 1 over a capture: everything the emit pass must know up front —
/// the CPU row count and the first-appearance order of iteration tracks.
struct CollectVisitor final : ChromeTraceCapture::Visitor {
  int max_cpu = -1;
  std::vector<Pid> iter_pids;
  std::vector<std::string> iter_tasks;

  void on_slice(const ChromeTraceCapture::Slice& s) override {
    if (s.cpu > max_cpu) max_cpu = s.cpu;
  }
  void on_prio(const ChromeTraceCapture::PrioSample&) override {}
  void on_iteration(const ChromeTraceCapture::IterationMark& m) override {
    for (const Pid p : iter_pids) {
      if (p == m.pid) return;
    }
    iter_pids.push_back(m.pid);
    iter_tasks.push_back(m.task);
  }
};

/// Pass 2: emit the JSON events. Iteration thread metadata is flushed just
/// before the first instant, matching the historical single-pass layout.
struct EmitVisitor final : ChromeTraceCapture::Visitor {
  std::string& out;
  bool& first;
  int pid;
  const CollectVisitor& info;
  bool iter_meta_done = false;

  EmitVisitor(std::string& o, bool& f, int process, const CollectVisitor& i)
      : out(o), first(f), pid(process), info(i) {}

  void on_slice(const ChromeTraceCapture::Slice& s) override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%s,\"dur\":%s,\"args\":{\"pid\":%d}",
                  esc(s.name).c_str(), pid, s.cpu, us(s.begin).c_str(),
                  us(s.end - s.begin).c_str(), s.pid);
    append_event(out, first, buf);
  }

  void on_prio(const ChromeTraceCapture::PrioSample& p) override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"hw_prio %s\",\"ph\":\"C\",\"pid\":%d,"
                  "\"ts\":%s,\"args\":{\"prio\":%d}",
                  esc(p.task).c_str(), pid, us(p.when).c_str(), p.prio);
    append_event(out, first, buf);
  }

  void on_iteration(const ChromeTraceCapture::IterationMark& m) override {
    char buf[256];
    if (!iter_meta_done) {
      iter_meta_done = true;
      for (std::size_t i = 0; i < info.iter_pids.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                      "\"args\":{\"name\":\"%s iterations\"}",
                      pid, 10000 + info.iter_pids[i], esc(info.iter_tasks[i]).c_str());
        append_event(out, first, buf);
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"iter %d\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
                  "\"tid\":%d,\"ts\":%s,"
                  "\"args\":{\"task\":\"%s\",\"util_last\":%.10g,\"util_metric\":%.10g}",
                  m.iteration, pid, 10000 + m.pid, us(m.when).c_str(),
                  esc(m.task).c_str(), m.util_last, m.util_metric);
    append_event(out, first, buf);
  }
};

/// Windowed-series counter tracks ("C" events, one track per column). Flat
/// all-zero columns are skipped — most runs exercise a fraction of the
/// catalogue and 40 dead tracks would bury the interesting ones. Emission
/// order is the fixed column order, so output stays deterministic.
void append_counter_tracks(std::string& out, bool& first, int pid,
                           const MetricsSnapshot& metrics) {
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
                    "\"ts\":%s,\"args\":{\"v\":%lld}",
                    esc(w.int_columns[c]).c_str(), pid, us(s.end).c_str(),
                    static_cast<long long>(s.ints[c]));
      append_event(out, first, buf);
    }
  }
  for (std::size_t c = 0; c < w.real_columns.size(); ++c) {
    bool flat = true;
    for (const WindowSample& s : w.samples) flat = flat && s.reals[c] == 0.0;
    if (flat) continue;
    for (const WindowSample& s : w.samples) {
      std::snprintf(buf, sizeof(buf),
                    "\"name\":\"win %s\",\"ph\":\"C\",\"pid\":%d,"
                    "\"ts\":%s,\"args\":{\"v\":%.10g}",
                    esc(w.real_columns[c]).c_str(), pid, us(s.end).c_str(),
                    s.reals[c]);
      append_event(out, first, buf);
    }
  }
}

}  // namespace

std::string render_chrome_trace(const std::vector<ChromeTraceRun>& runs) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  char buf[256];

  for (std::size_t r = 0; r < runs.size(); ++r) {
    const int pid = static_cast<int>(r) + 1;
    ChromeTraceCapture& sink = *runs[r].sink;

    CollectVisitor info;
    sink.replay(info);

    // Process / thread naming metadata.
    std::snprintf(buf, sizeof(buf),
                  "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"%s\"}",
                  pid, esc(runs[r].name).c_str());
    append_event(out, first, buf);

    for (int cpu = 0; cpu <= info.max_cpu; ++cpu) {
      std::snprintf(buf, sizeof(buf),
                    "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                    "\"args\":{\"name\":\"cpu %d\"}",
                    pid, cpu, cpu);
      append_event(out, first, buf);
    }

    EmitVisitor emit(out, first, pid, info);
    sink.replay(emit);

    if (runs[r].metrics != nullptr) {
      append_counter_tracks(out, first, pid, *runs[r].metrics);
    }
  }

  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<ChromeTraceRun>& runs) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string body = render_chrome_trace(runs);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f.get()) == body.size();
  if (!ok) std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace hpcs::obs
