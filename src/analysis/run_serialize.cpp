#include "analysis/run_serialize.h"

#include <cstdint>
#include <cstring>
#include <string_view>

namespace hpcs::analysis {

namespace {

/// Layout version, the blob's first four bytes; bumped on any field change
/// so blobs of two layouts never compare equal.
/// v2: MetricsSnapshot carries the manifest-v2 windowed series.
constexpr std::uint32_t kRunResultVersion = 2;

/// Append-only little-endian byte builder.
class Writer {
 public:
  Writer& u8(std::uint8_t v) { return le(v, 1); }
  Writer& u32(std::uint32_t v) { return le(v, 4); }
  Writer& u64(std::uint64_t v) { return le(v, 8); }
  Writer& i32(std::int32_t v) { return u32(static_cast<std::uint32_t>(v)); }
  Writer& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern, never a decimal format: one ULP changes the bytes.
  Writer& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  /// u32 length + raw bytes.
  Writer& str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
    return *this;
  }

  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  Writer& le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    return *this;
  }

  std::string buf_;
};

void put_task(Writer& w, const TaskResult& t) {
  w.str(t.name)
      .i32(t.pid)
      .f64(t.util_pct)
      .i32(t.final_hw_prio)
      .i64(t.cpu_time.ns())
      .i64(t.wakeups)
      .f64(t.avg_wakeup_latency_us)
      .i64(t.iterations);
}

void put_metric(Writer& w, const obs::MetricValue& m) {
  w.str(m.name)
      .u8(static_cast<std::uint8_t>(m.kind))
      .i64(m.count)
      .f64(m.value)
      .u32(static_cast<std::uint32_t>(m.edges.size()));
  for (const double e : m.edges) w.f64(e);
  w.u32(static_cast<std::uint32_t>(m.buckets.size()));
  for (const std::int64_t b : m.buckets) w.i64(b);
}

void put_windows(Writer& w, const obs::WindowedSeries& s) {
  w.i64(s.window_ns);
  w.u32(static_cast<std::uint32_t>(s.int_columns.size()));
  for (const std::string& c : s.int_columns) w.str(c);
  w.u32(static_cast<std::uint32_t>(s.real_columns.size()));
  for (const std::string& c : s.real_columns) w.str(c);
  w.u32(static_cast<std::uint32_t>(s.samples.size()));
  for (const obs::WindowSample& sm : s.samples) {
    w.i64(sm.end.ns());
    for (const std::int64_t v : sm.ints) w.i64(v);
    for (const double v : sm.reals) w.f64(v);
  }
}

}  // namespace

std::string serialize_run_result(const RunResult& r) {
  Writer w;
  w.u32(kRunResultVersion);
  w.u8(static_cast<std::uint8_t>(r.mode));
  w.i64(r.exec_time.ns());
  w.u32(static_cast<std::uint32_t>(r.ranks.size()));
  for (const TaskResult& t : r.ranks) put_task(w, t);
  w.u32(static_cast<std::uint32_t>(r.marks.size()));
  for (const std::vector<mpi::IterationMark>& per_rank : r.marks) {
    w.u32(static_cast<std::uint32_t>(per_rank.size()));
    for (const mpi::IterationMark& m : per_rank) {
      w.i64(m.when.ns()).i64(m.cpu_time.ns());
    }
  }
  w.f64(r.avg_wakeup_latency_us)
      .i64(r.context_switches)
      .i64(r.migrations)
      .i64(r.hw_prio_changes)
      .i64(r.hpc_history_resets)
      .i64(r.messages);
  w.i64(r.metrics.at.ns());
  w.u32(static_cast<std::uint32_t>(r.metrics.metrics.size()));
  for (const obs::MetricValue& m : r.metrics.metrics) put_metric(w, m);
  put_windows(w, r.metrics.windows);
  return w.take();
}

}  // namespace hpcs::analysis
