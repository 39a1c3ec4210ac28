#pragma once
// Parallel experiment engine: fan a batch of *independent* experiment runs
// across worker threads with results committed in submission order, so the
// output of a parallel run is bit-identical to the serial loop it replaces.
//
// Why this is safe: run_experiment() (and everything the sweep / table /
// ablation drivers execute per point) is fully self-contained — each run
// owns its Simulator, Kernel and Rng, seeded from its config alone. Runs
// therefore commute, and writing each result into a pre-allocated,
// index-addressed slot makes the collected vector independent of worker
// interleaving. Anything order-dependent (e.g. a sweep's
// improvement-vs-first column) is computed *after* collection.
//
// Knobs: the --jobs N flag (parse_jobs_flag) and the HPCS_JOBS environment
// variable; default_jobs() resolves env -> hardware_concurrency.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace hpcs::exp {

/// Host-side engine stats for the last run_all()/map() batch: how the sweep
/// executed on this machine. Strictly observational — simulation results are
/// a pure function of their configs — and therefore reported in the
/// .host.json sidecar, never in the deterministic metrics manifest.
struct EngineStats {
  std::int64_t tasks = 0;  ///< batch size
  unsigned workers = 0;    ///< worker threads actually started (0 = inline)
  /// Tasks run per worker thread (size == workers; empty for the serial
  /// path). The spread shows how evenly the batch divided across workers —
  /// one saturated worker and N-1 idle ones means the sweep serialized.
  std::vector<std::int64_t> per_worker_executed;
  double wall_ms = 0.0;  ///< batch wall time (host clock)
};

/// Resolve the default worker count: HPCS_JOBS if set (clamped to >= 1),
/// else std::thread::hardware_concurrency().
[[nodiscard]] unsigned default_jobs();

/// Scan argv for "--jobs N" / "--jobs=N" (removing nothing); returns
/// default_jobs() when the flag is absent. Benches call this so every
/// table*/ablation_* driver grows the knob uniformly.
[[nodiscard]] unsigned parse_jobs_flag(int argc, char** argv);

class ParallelRunner {
 public:
  /// `jobs` parallel workers; 0 means default_jobs(). jobs=1 runs inline on
  /// the caller's thread (no worker threads, no synchronization).
  explicit ParallelRunner(unsigned jobs = 0);

  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Stats of the most recent run_all()/map() batch (host-side only).
  [[nodiscard]] const EngineStats& last_stats() const { return last_stats_; }

  /// Run every task to completion, in parallel up to jobs(). Each task is
  /// self-contained and writes its own outputs (typically a captured
  /// reference to a result slot). The first exception (by submission index)
  /// is rethrown after all tasks have finished.
  void run_all(std::vector<std::function<void()>> tasks);

  /// Apply `fn` to 0..n-1 in parallel and return the results in index
  /// order — the deterministic map used by run_sweep and the table drivers.
  template <typename Fn>
  auto map(std::size_t n, Fn fn) -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    std::vector<std::optional<R>> slots(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back([&slots, &fn, i] { slots[i].emplace(fn(i)); });
    }
    run_all(std::move(tasks));
    std::vector<R> out;
    out.reserve(n);
    for (std::optional<R>& s : slots) out.push_back(std::move(*s));
    return out;
  }

 private:
  unsigned jobs_;
  EngineStats last_stats_;
};

}  // namespace hpcs::exp
