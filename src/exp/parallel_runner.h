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
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hpcs::exp {

/// The default worker count: std::thread::hardware_concurrency(), at least 1.
[[nodiscard]] unsigned default_jobs();

/// Parse a --jobs value: a positive integer that fits `unsigned`. On
/// failure returns false and sets `error` to a one-line reason, e.g.
/// "'0' is not a positive integer".
[[nodiscard]] bool parse_jobs(const char* text, unsigned& out, std::string& error);

class ParallelRunner {
 public:
  /// `jobs` parallel workers; 0 means default_jobs(). jobs=1 runs inline on
  /// the caller's thread (no worker threads, no synchronization).
  explicit ParallelRunner(unsigned jobs = 0);

  [[nodiscard]] unsigned jobs() const { return jobs_; }

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
};

}  // namespace hpcs::exp
