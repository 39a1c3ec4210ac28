#include "analysis/run_serialize.h"

#include <cstdint>
#include <cstring>
#include <string_view>

namespace hpcs::analysis {

namespace {

/// Layout version of the serialized RunResult; bumped on any field change so
/// a blob written by an older layout is rejected instead of misread.
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
  /// IEEE-754 bit pattern: bit-exact round trip, never a decimal format.
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

/// Bounds-checked little-endian reader. Any underrun (or an embedded string
/// longer than the bytes left) flips ok() to false and every later read
/// returns zero values, so callers check ok() once per count and at the end.
class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(le(8)); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = le(8);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    std::string s(buf_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  /// ok() and every byte consumed: trailing bytes are corruption.
  [[nodiscard]] bool done() const { return ok_ && pos_ == buf_.size(); }

 private:
  [[nodiscard]] bool take(std::size_t n) {
    if (!ok_ || buf_.size() - pos_ < n) ok_ = false;
    return ok_;
  }

  std::uint64_t le(int bytes) {
    if (!take(static_cast<std::size_t>(bytes))) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf_[pos_++])) << (8 * i);
    }
    return v;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Sanity caps: a count above these is a corrupt blob, not a plausible run.
constexpr std::uint32_t kMaxRanks = 1u << 16;
constexpr std::uint32_t kMaxMarks = 1u << 24;
constexpr std::uint32_t kMaxMetrics = 1u << 20;
constexpr std::uint32_t kMaxBuckets = 1u << 16;
constexpr std::uint32_t kMaxWindows = 1u << 24;

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

bool get_task(Reader& r, TaskResult& t) {
  t.name = r.str();
  t.pid = r.i32();
  t.util_pct = r.f64();
  t.final_hw_prio = r.i32();
  t.cpu_time = Duration(r.i64());
  t.wakeups = r.i64();
  t.avg_wakeup_latency_us = r.f64();
  t.iterations = r.i64();
  return r.ok();
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

bool get_metric(Reader& r, obs::MetricValue& m) {
  m.name = r.str();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) return false;
  m.kind = static_cast<obs::MetricKind>(kind);
  m.count = r.i64();
  m.value = r.f64();
  const std::uint32_t ne = r.u32();
  if (!r.ok() || ne > kMaxBuckets) return false;
  m.edges.clear();
  m.edges.reserve(ne);
  for (std::uint32_t i = 0; i < ne; ++i) m.edges.push_back(r.f64());
  const std::uint32_t nb = r.u32();
  if (!r.ok() || nb > kMaxBuckets) return false;
  m.buckets.clear();
  m.buckets.reserve(nb);
  for (std::uint32_t i = 0; i < nb; ++i) m.buckets.push_back(r.i64());
  return r.ok();
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

bool get_windows(Reader& r, obs::WindowedSeries& s) {
  s.window_ns = r.i64();
  const std::uint32_t ni = r.u32();
  if (!r.ok() || ni > kMaxMetrics) return false;
  s.int_columns.resize(ni);
  for (std::string& c : s.int_columns) c = r.str();
  const std::uint32_t nr = r.u32();
  if (!r.ok() || nr > kMaxMetrics) return false;
  s.real_columns.resize(nr);
  for (std::string& c : s.real_columns) c = r.str();
  const std::uint32_t ns = r.u32();
  if (!r.ok() || ns > kMaxWindows) return false;
  s.samples.assign(ns, {});
  for (obs::WindowSample& sm : s.samples) {
    sm.end = SimTime(r.i64());
    sm.ints.resize(ni);
    for (std::int64_t& v : sm.ints) v = r.i64();
    sm.reals.resize(nr);
    for (double& v : sm.reals) v = r.f64();
  }
  return r.ok();
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

bool deserialize_run_result(const std::string& bytes, RunResult& out) {
  Reader r(bytes);
  if (r.u32() != kRunResultVersion) return false;
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(SchedMode::kHybrid)) return false;
  out.mode = static_cast<SchedMode>(mode);
  out.exec_time = Duration(r.i64());
  const std::uint32_t nranks = r.u32();
  if (!r.ok() || nranks > kMaxRanks) return false;
  out.ranks.assign(nranks, {});
  for (TaskResult& t : out.ranks) {
    if (!get_task(r, t)) return false;
  }
  const std::uint32_t nmarks = r.u32();
  if (!r.ok() || nmarks > kMaxRanks) return false;
  out.marks.assign(nmarks, {});
  for (std::vector<mpi::IterationMark>& per_rank : out.marks) {
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > kMaxMarks) return false;
    per_rank.assign(n, {});
    for (mpi::IterationMark& m : per_rank) {
      m.when = SimTime(r.i64());
      m.cpu_time = Duration(r.i64());
    }
  }
  out.avg_wakeup_latency_us = r.f64();
  out.context_switches = r.i64();
  out.migrations = r.i64();
  out.hw_prio_changes = r.i64();
  out.hpc_history_resets = r.i64();
  out.messages = r.i64();
  out.metrics.at = SimTime(r.i64());
  const std::uint32_t nmetrics = r.u32();
  if (!r.ok() || nmetrics > kMaxMetrics) return false;
  out.metrics.metrics.assign(nmetrics, {});
  for (obs::MetricValue& m : out.metrics.metrics) {
    if (!get_metric(r, m)) return false;
  }
  if (!get_windows(r, out.metrics.windows)) return false;
  out.tracer.reset();
  out.recorder.reset();
  out.chrome.reset();
  return r.done();
}

}  // namespace hpcs::analysis
