// hpcs_perfbench: the paper-workload benchmark.
//
//   hpcs_perfbench --workload <siesta|metbenchvar|paper_sweep>
//                  --seed N --seconds S --trace <0|1>
//   hpcs_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with every layer undecorated:
// set-up passes, then whole batches of the workload in a closed loop (the
// next run starts when the previous one finishes) for S seconds, with a
// host-speed probe (probe.h) after every pass and batch; the times are
// rescaled by it to the reference host speed.
// --trace 1 is the separate traced run: per point, the plain run, an obs run
// for the simcore counters, the decorated reassembly (layer spans), the chip
// replay and a trace capture with in-memory rendering; it prints the
// per-layer metrics and an attribution table.
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/parallel_runner.h"
#include "layers.h"
#include "obs/manifest.h"
#include "points.h"
#include "probe.h"
#include "trace/csv.h"
#include "trace/gantt.h"
#include "trace/paraver.h"

namespace {

using namespace hpcs;
using pb::Clock;

const Clock::time_point kProcessStart = Clock::now();

// ---------------------------------------------------------------------------
// Metric catalogue (mirrors BENCHMARK.json)
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"wall_s", "s"},      {"sim_rate", "sim_s/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"}, {"paper_err_pp", "pp"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"simcore.events", "count"},
    {"simcore.resched_inplace", "count"},
    {"simcore.stale_dropped", "count"},
    {"kernel.ctx_switches", "count"},
    {"kernel.wakeups", "count"},
    {"kernel.migrations", "count"},
    {"kernel.balance_pulls", "count"},
    {"kernel.sink_events", "count"},
    {"core.self_s", "s"},
    {"core.ns_per_event", "ns"},
    {"power5.replay_calls", "count"},
    {"power5.replay_ns_per_call", "ns"},
    {"hpcsched.calls", "count"},
    {"hpcsched.self_s", "s"},
    {"hpcsched.mechanism_s", "s"},
    {"hpcsched.heuristic_s", "s"},
    {"hpcsched.iterations", "count"},
    {"hpcsched.prio_changes", "count"},
    {"workloads.next_calls", "count"},
    {"workloads.next_s", "s"},
    {"workloads.build_s", "s"},
    {"simmpi.messages", "count"},
    {"exp.parallel_eff", "ratio"},
    {"exp.critical_path_s", "s"},
    {"trace.render_s", "s"},
    {"trace.bytes", "bytes"},
    {"obs.manifest_s", "s"},
    {"obs.chrome_s", "s"},
    {"obs.bytes", "bytes"},
    {"trace.capture_overhead", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unattributed_s", "s"},
};

bool valid_metric_name(const std::string& n) {
  static const std::regex re("[A-Za-z0-9_.-]+");
  return std::regex_match(n, re);
}

/// Collects metric values; prints the final JSON line. Only catalogue names
/// are accepted, and every name of the selected catalogue must be set.
class Report {
 public:
  explicit Report(const std::vector<MetricSpec>& specs) : specs_(specs) {}

  void set(const std::string& name, double v) { put(name, v, false); }
  void count(const std::string& name, std::int64_t v) { put(name, static_cast<double>(v), true); }

  void print_json(bool correct, std::int64_t attempted, std::int64_t failed) const {
    if (values_.size() != specs_.size()) {
      std::fprintf(stderr, "internal error: %zu of %zu metrics set\n", values_.size(), specs_.size());
      std::exit(2);
    }
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec& s : specs_) {
      const auto it = values_.find(s.name);
      if (it == values_.end()) continue;
      char buf[64];
      if (it->second.integer) {
        std::snprintf(buf, sizeof buf, "%.0f", it->second.value);
      } else {
        std::snprintf(buf, sizeof buf, "%.15g", it->second.value);
      }
      out += first ? "" : ", ";
      first = false;
      out += std::string("\"") + s.name + "\": {\"value\": " + buf + ", \"unit\": \"" + s.unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Value {
    double value;
    bool integer;
  };
  void put(const std::string& name, double v, bool integer) {
    const bool known = std::any_of(specs_.begin(), specs_.end(),
                                   [&](const MetricSpec& s) { return name == s.name; });
    if (!known) {
      std::fprintf(stderr, "internal error: metric '%s' is not in the catalogue\n", name.c_str());
      std::exit(2);
    }
    values_[name] = {v, integer};
  }

  const std::vector<MetricSpec>& specs_;
  std::map<std::string, Value> values_;
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss survives execve, so it would report the parent's
/// peak when that is larger.) Returns -1 when unavailable.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return -1.0;
}

/// Counts runs and the runs that failed a check, plus checks on the process
/// as a whole (outputs written, counts repeated); prints why.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool whole_run_ok = true;

  void run(const std::string& label, const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems) std::printf("CHECK FAILED %s: %s\n", label.c_str(), p.c_str());
  }
  void whole_run(bool ok, const std::string& what) {
    if (ok) return;
    whole_run_ok = false;
    std::printf("CHECK FAILED %s\n", what.c_str());
  }
  [[nodiscard]] bool correct() const { return failed == 0 && whole_run_ok; }
};

/// Output checks every run must pass: completion before the deadline and
/// every %Comp within [0, 100].
std::vector<std::string> result_problems(const pb::Point& p, const analysis::RunResult& r) {
  std::vector<std::string> out;
  const analysis::ExperimentConfig cfg = pb::point_config(p);
  if (r.exec_time <= Duration::zero() || r.exec_time.ns() >= cfg.deadline.ns()) {
    out.push_back("run did not complete before its deadline");
  }
  for (const analysis::TaskResult& t : r.ranks) {
    if (!(t.util_pct >= 0.0 && t.util_pct <= 100.0)) {
      out.push_back("%Comp of " + t.name + " outside [0, 100]");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

struct Batch {
  std::vector<analysis::RunResult> results;
  std::vector<double> spans;  ///< host seconds inside each run
  double wall = 0.0;
};

/// One batch of plain runs: serially, or through exp::ParallelRunner when
/// jobs > 1 (each worker starts its next run when its previous one ends).
Batch run_batch(const std::vector<pb::Point>& points, unsigned jobs, bool trace,
                const obs::ObsConfig& obs) {
  Batch b;
  const Clock::time_point t0 = Clock::now();
  exp::ParallelRunner runner(jobs);
  auto timed = runner.map(points.size(), [&](std::size_t i) {
    const Clock::time_point s = Clock::now();
    analysis::RunResult r = pb::run_point(points[i], trace, obs);
    return std::make_pair(std::move(r), pb::seconds_since(s));
  });
  for (auto& [r, s] : timed) {
    b.results.push_back(std::move(r));
    b.spans.push_back(s);
  }
  b.wall = pb::seconds_since(t0);
  return b;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double sim_rate(const Batch& b) {
  double sim = 0.0;
  for (const analysis::RunResult& r : b.results) sim += r.exec_time.sec();
  return sim / sum(b.spans);
}

// ---------------------------------------------------------------------------
// Trace and obs rendering (traced run only)
// ---------------------------------------------------------------------------

obs::ObsConfig capture_obs() {
  obs::ObsConfig o;
  o.enabled = true;
  o.chrome_trace = true;
  o.window_ns = 100'000'000;  // 100 ms windows in the manifest
  return o;
}

struct Rendered {
  double trace_s = 0.0;     ///< PARAVER + CSV + Gantt
  double manifest_s = 0.0;
  double chrome_s = 0.0;
  std::int64_t trace_bytes = 0;
  std::int64_t obs_bytes = 0;
  std::uint64_t hash = 14695981039346656037ULL;  ///< over every rendered byte
};

/// Hashes and counts every rendered byte; the text itself is dropped.
class Renderer {
 public:
  explicit Renderer(Rendered& out) : out_(out) {}

  void write(const std::string& text, std::int64_t& bytes) {
    for (unsigned char c : text) {
      out_.hash ^= c;
      out_.hash *= 1099511628211ULL;
    }
    bytes += static_cast<std::int64_t>(text.size());
  }

  template <typename Fn>
  void write_stream(Fn fn) {
    std::ostringstream os;
    fn(os);
    write(os.str(), out_.trace_bytes);
  }

 private:
  Rendered& out_;
};

/// Render PARAVER .prv/.pcf/.row, the three CSVs and the Gantt chart per run,
/// then one windowed manifest and one Chrome trace for the whole batch, in
/// memory.
void render_outputs(const std::vector<pb::Point>& points,
                    const std::vector<analysis::RunResult>& results, Rendered& out) {
  Renderer w(out);
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const analysis::RunResult& r = results[i];
    std::vector<Pid> pids;
    std::vector<std::string> labels;
    for (std::size_t k = 0; k < r.ranks.size(); ++k) {
      pids.push_back(r.ranks[k].pid);
      labels.push_back("P" + std::to_string(k + 1));
    }
    trace::ParaverJob job;
    job.pids = pids;
    job.labels = labels;
    const trace::Tracer& tr = *r.tracer;
    w.write_stream([&](std::ostream& os) { trace::write_prv(os, tr, job); });
    w.write_stream([&](std::ostream& os) { trace::write_pcf(os); });
    w.write_stream([&](std::ostream& os) { trace::write_row(os, job); });
    w.write_stream([&](std::ostream& os) { trace::write_iterations_csv(os, tr, pids, labels); });
    w.write_stream([&](std::ostream& os) { trace::write_intervals_csv(os, tr, pids, labels); });
    w.write_stream([&](std::ostream& os) { trace::write_priorities_csv(os, tr, pids, labels); });
    trace::GanttOptions gopt;
    gopt.width = 110;
    w.write(trace::render_gantt(tr, pids, labels, gopt), out.trace_bytes);
  }
  out.trace_s += pb::seconds_since(t0);

  t0 = Clock::now();
  std::vector<obs::ManifestRun> runs;
  for (std::size_t i = 0; i < points.size(); ++i) runs.push_back({points[i].label, results[i].metrics});
  w.write(obs::render_manifest_json("perfbench", runs), out.obs_bytes);
  out.manifest_s += pb::seconds_since(t0);

  t0 = Clock::now();
  std::vector<obs::ChromeTraceRun> truns;
  for (std::size_t i = 0; i < points.size(); ++i) {
    truns.push_back({points[i].label, results[i].chrome.get(), &results[i].metrics});
  }
  w.write(obs::render_chrome_trace(truns), out.obs_bytes);
  out.chrome_s += pb::seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The closed loop cycles through kSeedCycle input sets derived from the
/// workload seed (set 0 is the seed's own). paper_err_pp is the median over
/// the cycle, so one noise-sensitive seed does not decide it; every later
/// batch must reproduce the digests of the first batch on the same set.
constexpr int kSeedCycle = 5;

/// One set-up pass: generate every input set of the cycle from the seed,
/// build each point's rank programs, and run the first set's batch once,
/// untimed, as the warm-up.
std::vector<std::vector<pb::Point>> setup_pass(pb::Workload w, std::uint64_t seed, int sets,
                                               unsigned jobs) {
  std::vector<std::vector<pb::Point>> cycle;
  for (int k = 0; k < sets; ++k) {
    cycle.push_back(pb::make_points(w, pb::cycle_seed(seed, k)));
    for (const pb::Point& p : cycle.back()) (void)pb::point_programs(p);
  }
  (void)run_batch(cycle[0], jobs, false, {});
  return cycle;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

struct Args {
  pb::Workload workload = pb::Workload::kSiesta;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool selftest = false;
};

/// paper_sweep keeps min(4, nproc) closed loops in the parallel engine; the
/// other workloads run serially.
unsigned jobs_for(const Args& a) {
  if (a.workload != pb::Workload::kPaperSweep) return 1;
  return std::min(4U, std::max(1U, std::thread::hardware_concurrency()));
}

constexpr int kSetupPasses = 3;

int run_end_to_end(const Args& a) {
  const unsigned jobs = jobs_for(a);
  // Host seconds of each set-up pass and each batch, each with the probe
  // taken right after it (probes[0] follows the first set-up pass).
  std::vector<double> setup;
  std::vector<double> probes;
  std::vector<std::vector<pb::Point>> cycle;
  double rss = 0.0;
  Clock::time_point t0 = kProcessStart;
  for (int i = 0; i < kSetupPasses; ++i) {
    cycle = setup_pass(a.workload, a.seed, kSeedCycle, jobs);
    setup.push_back(pb::seconds_since(t0));
    if (i == 0) {
      // Before the probe's own buffers exist. Later passes and batches run
      // the same points, on other seeds for the batches.
      rss = peak_rss_mb();
      (void)pb::host_probe(jobs);  // allocates the probe's buffers, untimed
    }
    probes.push_back(pb::host_probe(jobs));
    t0 = Clock::now();
  }

  Tally tally;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<std::vector<pb::Digest>> first(kSeedCycle);  // per input set
  std::vector<double> err_pp;

  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0; n < cycle.size() || pb::seconds_since(start) < a.seconds; ++n) {
    const std::size_t k = n % cycle.size();
    const std::vector<pb::Point>& points = cycle[k];
    Batch b = run_batch(points, jobs, false, {});
    if (n < cycle.size()) {
      for (const analysis::RunResult& r : b.results) first[k].push_back(pb::digest_of(r));
      err_pp.push_back(pb::paper_err_pp(points, b.results));
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::vector<std::string> problems = result_problems(points[i], b.results[i]);
      if (!(pb::digest_of(b.results[i]) == first[k][i])) {
        problems.push_back("result digest differs from the first batch on the same inputs");
      }
      tally.run(points[i].label, problems);
    }
    walls.push_back(b.wall);
    rates.push_back(sim_rate(b));
    probes.push_back(pb::host_probe(jobs));
  }

  std::printf("workload %s: seed %" PRIu64 ", %zu batches of %zu runs over %zu input sets, "
              "jobs %u\n", pb::workload_name(a.workload), a.seed, walls.size(), cycle[0].size(),
              cycle.size(), jobs);
  for (std::size_t i = 0; i < cycle[0].size(); ++i) {
    std::printf("  %-28s exec %9.3f s  digest %016" PRIx64 "\n", cycle[0][i].label.c_str(),
                static_cast<double>(first[0][i].exec_ns) * 1e-9, first[0][i].hash());
  }
  std::printf("  paper_err_pp per input set:");
  for (double e : err_pp) std::printf(" %.3f", e);
  std::printf("\n");
  // Reference seconds = host seconds x scale. A set-up pass is scaled by the
  // probe after it; a batch by the geometric mean of the probes around it.
  std::vector<double> setup_ref;
  std::vector<double> wall_ref;
  std::vector<double> rate_ref;
  for (std::size_t i = 0; i < setup.size(); ++i) {
    setup_ref.push_back(setup[i] * pb::kProbeReferenceS / probes[i]);
  }
  for (std::size_t i = 0; i < walls.size(); ++i) {
    const std::size_t p = setup.size() + i;
    const double scale = pb::kProbeReferenceS / std::sqrt(probes[p - 1] * probes[p]);
    wall_ref.push_back(walls[i] * scale);
    rate_ref.push_back(rates[i] / scale);
  }
  std::printf("  host probe: median %.4f s over %zu samples (reference %.3f s); unscaled "
              "wall_s %.4f s, sim_rate %.2f sim_s/s, setup_s %.4f s\n",
              median(probes), probes.size(), pb::kProbeReferenceS, median(walls), median(rates),
              median(setup));

  Report rep(kEndToEnd);
  rep.set("wall_s", median(wall_ref));
  rep.set("sim_rate", median(rate_ref));
  rep.set("setup_s", median(setup_ref));
  tally.whole_run(rss > 0.0, "peak resident memory unavailable");
  rep.set("peak_rss_mb", rss);
  tally.whole_run(*std::min_element(err_pp.begin(), err_pp.end()) >= 0.0,
                  "no paper reference for paper_err_pp");
  rep.set("paper_err_pp", median(err_pp));
  rep.print_json(tally.correct(), tally.attempted, tally.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// Deterministic counts of one traced pass (must repeat exactly).
struct Counts {
  std::int64_t events = 0, resched_inplace = 0, stale_dropped = 0;
  std::int64_t ctx = 0, wakeups = 0, migrations = 0, pulls = 0, sink_events = 0;
  std::int64_t replay_calls = 0, hpc_calls = 0, iterations = 0, prio_changes = 0;
  std::int64_t next_calls = 0, messages = 0, trace_bytes = 0, obs_bytes = 0;
  std::uint64_t render_hash = 0;  ///< over every rendered byte
  bool operator==(const Counts&) const = default;
};

/// Host times of one traced pass.
struct Times {
  double plain = 0.0;      ///< Σ plain run spans
  double decorated = 0.0;  ///< Σ decorated run spans
  double core = 0.0, hpc_self = 0.0, mech = 0.0, heur = 0.0, next = 0.0, build = 0.0;
  double replay = 0.0, capture = 0.0, render = 0.0, manifest = 0.0, chrome = 0.0;
  double parallel_eff = 0.0, critical = 0.0, unattributed = 0.0;
};

std::int64_t metric_count(const obs::MetricsSnapshot& m, const char* name) {
  const obs::MetricValue* v = m.find(name);
  return v != nullptr ? v->count : 0;
}

void traced_pass(const Args& a, const std::vector<pb::Point>& points, Tally& tally, Counts& c,
                 Times& t) {
  const unsigned jobs = jobs_for(a);
  // The untraced reference batch (through the parallel engine for the sweep).
  const Batch ref = run_batch(points, jobs, false, {});
  t.plain = sum(ref.spans);
  t.parallel_eff = t.plain / (static_cast<double>(jobs) * ref.wall);
  t.critical = *std::max_element(ref.spans.begin(), ref.spans.end());

  obs::ObsConfig counters;
  counters.enabled = true;
  Rendered rendered;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const pb::Point& p = points[i];
    const pb::Digest want = pb::digest_of(ref.results[i]);
    std::vector<std::string> problems = result_problems(p, ref.results[i]);

    const analysis::RunResult with_obs = pb::run_point(p, false, counters);
    c.events += metric_count(with_obs.metrics, "sim.events_executed");
    c.resched_inplace += metric_count(with_obs.metrics, "sim.eq_resched_inplace");
    c.stale_dropped += metric_count(with_obs.metrics, "sim.eq_stale_dropped");
    if (!(pb::digest_of(with_obs) == want)) problems.push_back("obs run digest differs");

    const Clock::time_point b0 = Clock::now();
    wl::ProgramSet programs = pb::point_programs(p);
    t.build += pb::seconds_since(b0);
    const pb::DecoratedRun d = pb::run_decorated(pb::point_config(p), std::move(programs));
    const pb::LayerStats& s = d.stats;
    if (!(d.digest == want)) {
      problems.push_back(jobs > 1 ? "serial decorated digest differs from the --jobs run"
                                  : "decorated digest differs from run_experiment");
    }
    if (s.accounting_violations != 0) {
      problems.push_back(std::to_string(s.accounting_violations) +
                         " ranks break t_run + t_ready + t_sleep == exit - created");
    }
    t.decorated += s.run_s;
    t.core += s.run_s - s.hpc_class.sec() - s.next.sec();
    t.unattributed += s.run_s - s.loop_s;
    t.hpc_self += s.hpc_class.sec() - s.mechanism.sec() - s.heuristic.sec();
    t.mech += s.mechanism.sec();
    t.heur += s.heuristic.sec();
    t.next += s.next.sec();
    c.ctx += s.ctx_switches;
    c.wakeups += s.wakeups;
    c.migrations += s.migrations;
    c.pulls += s.balance_pulls;
    c.sink_events += s.sink_events;
    c.hpc_calls += s.hpc_class.calls;
    c.iterations += s.iterations;
    c.prio_changes += s.prio_changes;
    c.next_calls += s.next.calls;
    c.messages += s.messages;

    const pb::ReplayResult rr = pb::replay_chip(s.chip_ops, pb::point_config(p).kernel);
    c.replay_calls += rr.calls;
    t.replay += rr.seconds;
    if (!(rr.speed_sum > 0.0)) problems.push_back("chip replay produced no speed");

    // Capture and render one point at a time, in memory, so a long run's
    // trace never sits next to another's.
    const Clock::time_point c0 = Clock::now();
    std::vector<analysis::RunResult> captured;
    captured.push_back(pb::run_point(p, true, capture_obs()));
    t.capture += pb::seconds_since(c0);
    if (!(pb::digest_of(captured.back()) == want)) problems.push_back("capture run digest differs");
    render_outputs({p}, captured, rendered);
    tally.run(p.label, problems);
  }
  t.render = rendered.trace_s;
  t.manifest = rendered.manifest_s;
  t.chrome = rendered.chrome_s;
  c.trace_bytes = rendered.trace_bytes;
  c.obs_bytes = rendered.obs_bytes;
  c.render_hash = rendered.hash;
}

void print_attribution(const Counts& c, const Times& t) {
  const double base = t.decorated;
  auto row = [&](const char* layer, double s, const char* count_name, std::int64_t n) {
    std::printf("  %-40s %10.4f s %6.1f%%   %-22s %12" PRId64 "\n", layer, s, 100.0 * s / base,
                count_name, n);
  };
  std::printf("per-layer attribution (traced run; shares are of the decorated run span, "
              "base %.4f s)\n", base);
  std::printf("  %-40s %12s %7s   %-22s %12s\n", "layer", "self", "share", "count", "value");
  row("hpcsched (class hooks, self)", t.hpc_self, "hpcsched.calls", c.hpc_calls);
  row("hpcsched mechanism", t.mech, "hpcsched.prio_changes", c.prio_changes);
  row("hpcsched heuristic", t.heur, "hpcsched.iterations", c.iterations);
  row("workloads (RankProgram::next)", t.next, "workloads.next_calls", c.next_calls);
  row("core residual (simcore+kernel+p5+mpi)", t.core, "simcore.events", c.events);
  std::printf("  unattributed: %.4f s (%.1f%% of the run span) is set-up and result collection "
              "outside run_to_completion; the core residual is not split further\n",
              t.unattributed, 100.0 * t.unattributed / base);
  std::printf("  core.ns_per_event: %.1f ns (base: %" PRId64 " simulated events)\n",
              1e9 * t.core / static_cast<double>(c.events), c.events);
  std::printf("  power5 replay: %.4f s for %" PRId64 " chip calls = %.1f ns/call "
              "(%.1f%% of the core residual)\n",
              t.replay, c.replay_calls, 1e9 * t.replay / static_cast<double>(c.replay_calls),
              100.0 * t.replay / t.core);
  const double cost = pb::span_cost_ns();
  const std::int64_t spans = c.hpc_calls + c.next_calls;
  std::printf("  span cost: %.1f ns each (empty-span calibration); %" PRId64
              " class-hook and next() spans carry ~%.4f s of it (%.1f%% of the run span)\n",
              cost, spans, cost * 1e-9 * static_cast<double>(spans),
              100.0 * cost * 1e-9 * static_cast<double>(spans) / base);
  std::printf("  bench.trace_overhead: decorated %.4f s / plain %.4f s = %.3f\n", t.decorated,
              t.plain, t.decorated / t.plain);
  std::printf("  trace.capture_overhead: capture %.4f s / plain %.4f s = %.3f\n", t.capture,
              t.plain, t.capture / t.plain);
}

int run_traced(const Args& a) {
  (void)pb::ns_per_tick();  // calibrate the span clock before any span is read
  const std::vector<pb::Point> points = setup_pass(a.workload, a.seed, 1, jobs_for(a))[0];
  Tally tally;
  std::vector<Times> passes;
  Counts c0;
  const Clock::time_point start = Clock::now();
  do {
    Counts c;
    Times t;
    traced_pass(a, points, tally, c, t);
    if (passes.empty()) c0 = c;
    tally.whole_run(c == c0, "traced pass " + std::to_string(passes.size() + 1) +
                                 ": per-layer counts differ from the first pass");
    passes.push_back(t);
  } while (pb::seconds_since(start) < a.seconds);

  // Median of each time over the passes.
  auto med = [&](double Times::*f) {
    std::vector<double> v;
    for (const Times& t : passes) v.push_back(t.*f);
    return median(v);
  };
  Times m;
  for (double Times::*f : {&Times::plain, &Times::decorated, &Times::core, &Times::hpc_self,
                           &Times::mech, &Times::heur, &Times::next, &Times::build,
                           &Times::replay, &Times::capture, &Times::render, &Times::manifest,
                           &Times::chrome, &Times::parallel_eff, &Times::critical,
                           &Times::unattributed}) {
    m.*f = med(f);
  }
  std::printf("workload %s: seed %" PRIu64 ", %zu traced passes of %zu points\n",
              pb::workload_name(a.workload), a.seed, passes.size(), points.size());
  print_attribution(c0, m);
  std::printf("  traced run peak resident memory: %.1f MB\n", peak_rss_mb());

  Report rep(kPerLayer);
  rep.count("simcore.events", c0.events);
  rep.count("simcore.resched_inplace", c0.resched_inplace);
  rep.count("simcore.stale_dropped", c0.stale_dropped);
  rep.count("kernel.ctx_switches", c0.ctx);
  rep.count("kernel.wakeups", c0.wakeups);
  rep.count("kernel.migrations", c0.migrations);
  rep.count("kernel.balance_pulls", c0.pulls);
  rep.count("kernel.sink_events", c0.sink_events);
  rep.set("core.self_s", m.core);
  rep.set("core.ns_per_event", 1e9 * m.core / static_cast<double>(c0.events));
  rep.count("power5.replay_calls", c0.replay_calls);
  rep.set("power5.replay_ns_per_call", 1e9 * m.replay / static_cast<double>(c0.replay_calls));
  rep.count("hpcsched.calls", c0.hpc_calls);
  rep.set("hpcsched.self_s", m.hpc_self);
  rep.set("hpcsched.mechanism_s", m.mech);
  rep.set("hpcsched.heuristic_s", m.heur);
  rep.count("hpcsched.iterations", c0.iterations);
  rep.count("hpcsched.prio_changes", c0.prio_changes);
  rep.count("workloads.next_calls", c0.next_calls);
  rep.set("workloads.next_s", m.next);
  rep.set("workloads.build_s", m.build);
  rep.count("simmpi.messages", c0.messages);
  rep.set("exp.parallel_eff", m.parallel_eff);
  rep.set("exp.critical_path_s", m.critical);
  rep.set("trace.render_s", m.render);
  rep.count("trace.bytes", c0.trace_bytes);
  rep.set("obs.manifest_s", m.manifest);
  rep.set("obs.chrome_s", m.chrome);
  rep.count("obs.bytes", c0.obs_bytes);
  rep.set("trace.capture_overhead", m.capture / m.plain);
  rep.set("bench.trace_overhead", m.decorated / m.plain);
  rep.set("bench.unattributed_s", m.unattributed);
  rep.print_json(tally.correct(), tally.attempted, tally.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// --selftest: the benchmark's own tests
// ---------------------------------------------------------------------------

int run_selftest() {
  int checks = 0;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::printf("FAIL %s\n", what.c_str());
    }
  };
  auto digests = [](const std::vector<pb::Point>& pts, unsigned jobs) {
    std::vector<pb::Digest> out;
    for (const analysis::RunResult& r : run_batch(pts, jobs, false, {}).results) {
      out.push_back(pb::digest_of(r));
    }
    return out;
  };

  // Same seed, same digests; serial equals --jobs N.
  const auto sweep = pb::make_points(pb::Workload::kPaperSweep, 7, true);
  const auto serial = digests(sweep, 1);
  expect(serial == digests(pb::make_points(pb::Workload::kPaperSweep, 7, true), 1),
         "same seed gives the same digests");
  const auto parallel = digests(sweep, 2);
  expect(serial == parallel, "serial digests equal --jobs 2 digests");
  // The sweep's Table IV and VI points are the metbenchvar and siesta
  // workloads' points: the --jobs run must reproduce those serial digests.
  for (pb::Workload w : {pb::Workload::kMetBenchVar, pb::Workload::kSiesta}) {
    const auto pts = pb::make_points(w, 7, true);
    const auto own = digests(pts, 1);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto it = std::find_if(sweep.begin(), sweep.end(),
                                   [&](const pb::Point& p) { return p.label == pts[i].label; });
      expect(it != sweep.end() && parallel[static_cast<std::size_t>(it - sweep.begin())] == own[i],
             "--jobs 2 sweep reproduces serial " + pts[i].label);
    }
  }

  // A different seed gives different inputs (and different results).
  const auto other = pb::make_points(pb::Workload::kSiesta, 8, true);
  const auto mine = pb::make_points(pb::Workload::kSiesta, 7, true);
  expect(pb::point_config(other[0]).seed != pb::point_config(mine[0]).seed,
         "a different seed gives a different ExperimentConfig::seed");
  auto first_ops = [](const pb::Point& p) {
    std::vector<double> work;
    wl::ProgramSet progs = pb::point_programs(p);
    for (int i = 0; i < 64; ++i) {
      const mpi::MpiOp op = progs[1]->next();
      if (const auto* c = std::get_if<mpi::OpCompute>(&op)) work.push_back(c->work);
    }
    return work;
  };
  expect(first_ops(other[0]) != first_ops(mine[0]), "a different seed gives different SIESTA bursts");
  expect(digests(other, 1) != digests(mine, 1), "a different seed gives different SIESTA digests");

  // Metric names.
  for (const auto* cat : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& s : *cat) {
      expect(valid_metric_name(s.name), std::string("metric name ") + s.name + " is valid");
    }
  }
  expect(!valid_metric_name("bad name"), "metric-name check rejects a space");

  // The forwarding decorators leave results unchanged, on every point kind.
  for (const pb::Point& p : sweep) {
    const pb::DecoratedRun d = pb::run_decorated(pb::point_config(p), pb::point_programs(p));
    expect(d.digest == pb::digest_of(pb::run_point(p)), "decorated == run_experiment for " + p.label);
    expect(d.stats.accounting_violations == 0, "accounting holds for " + p.label);
    expect(d.stats.next.calls > 0, "RankProgram decorator saw calls for " + p.label);
    if (analysis::is_dynamic_mode(p.mode)) {
      expect(d.stats.hpc_class.calls > 0, "SchedClass decorator saw calls for " + p.label);
    }
  }
  std::printf("selftest: %d checks, %d failed\n", checks, failures);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (!pb::parse_workload(v, a.workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", v);
        return false;
      }
      continue;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
      if (a.trace != 0 && a.trace != 1) end = nullptr;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
    if (end == nullptr || *end != '\0') {
      std::fprintf(stderr, "bad value '%s' for %s\n", v, arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return 2;
  if (a.selftest) return run_selftest();
  return a.trace == 1 ? run_traced(a) : run_end_to_end(a);
}
