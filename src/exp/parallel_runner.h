#pragma once
// Parallel experiment engine: fan a batch of *independent* experiment runs
// across worker threads with results committed in index order, so the
// output of a parallel run is bit-identical to the serial loop it replaces.
// ParallelRunner::map is the one way in: every table, figure, export and
// ablation driver runs its grid through it.
//
// Why this is safe: run_experiment() (and everything a driver executes per
// run) is fully self-contained — each run owns its Simulator, Kernel and
// Rng, seeded from its config alone. Runs therefore commute, and writing
// each result into a pre-allocated, index-addressed slot makes the collected
// vector independent of worker interleaving. Anything order-dependent (e.g.
// an improvement-vs-first column) is computed *after* collection.
//
// One knob: the --jobs N flag (its value checked by parse_jobs); without it
// a batch uses every hardware thread (default_jobs()).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hpcs::exp {

/// Host-side engine stats for the last map() batch: how the batch executed
/// on this machine. Strictly observational — simulation results are a pure
/// function of their configs — and therefore reported in the .host.json
/// sidecar, never in the deterministic metrics manifest.
struct EngineStats {
  std::int64_t tasks = 0;  ///< batch size
  unsigned workers = 0;    ///< worker threads actually started (0 = inline)
  /// Tasks run per worker thread (size == workers; empty for the serial
  /// path). The spread shows how evenly the batch divided across workers —
  /// one saturated worker and N-1 idle ones means the batch serialized.
  std::vector<std::int64_t> per_worker_executed;
  double wall_ms = 0.0;  ///< batch wall time (host clock)
};

/// The default worker count: std::thread::hardware_concurrency(), at least 1.
[[nodiscard]] unsigned default_jobs();

/// Parse a --jobs value: a positive integer that fits `unsigned`. On
/// failure returns false and sets `error` to a one-line reason, e.g.
/// "'0' is not a positive integer".
[[nodiscard]] bool parse_jobs(const char* text, unsigned& out, std::string& error);

/// The host sidecar MANIFEST_<bench>.host.json (schema hpcs-obs-host-v2):
/// the batch's engine stats, wall time as %.10g. `bench` is a driver name
/// and is written unescaped. It is the one report that holds wall-clock, so
/// the main manifest stays byte-comparable.
[[nodiscard]] std::string render_host_json(const char* bench, unsigned jobs,
                                           const EngineStats& s);

class ParallelRunner {
 public:
  /// `jobs` parallel workers; 0 means default_jobs(). jobs=1 runs inline on
  /// the caller's thread (no worker threads, no synchronization).
  explicit ParallelRunner(unsigned jobs = 0);

  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Stats of the most recent map() batch (host-side only).
  [[nodiscard]] const EngineStats& last_stats() const { return last_stats_; }

  /// Apply `fn` to 0..n-1 in parallel, up to jobs() at a time, and return
  /// the results in index order. The first exception (by index) is rethrown
  /// after every call has finished.
  template <typename Fn>
  auto map(std::size_t n, Fn fn) -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    std::vector<std::optional<R>> slots(n);
    run_all(n, [&slots, &fn](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (std::optional<R>& s : slots) out.push_back(std::move(*s));
    return out;
  }

 private:
  /// Run task(0..n-1) to completion; each call writes only its own slot.
  void run_all(std::size_t n, const std::function<void(std::size_t)>& task);

  unsigned jobs_;
  EngineStats last_stats_;
};

}  // namespace hpcs::exp
