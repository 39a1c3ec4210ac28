#include "exp/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

namespace hpcs::exp {

unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

unsigned parse_jobs_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --jobs: missing value\n");
        std::exit(2);
      }
      value = argv[i + 1];
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      value = argv[i] + 7;
    } else {
      continue;
    }
    const char* end = value + std::strlen(value);
    unsigned jobs = 0;
    const auto [ptr, ec] = std::from_chars(value, end, jobs);
    if (ec != std::errc{} || ptr != end || jobs == 0) {
      std::fprintf(stderr, "error: --jobs: '%s' is not a positive integer\n", value);
      std::exit(2);
    }
    return jobs;
  }
  return default_jobs();
}

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {}

void ParallelRunner::run_all(std::size_t n, const std::function<void(std::size_t)>& task) {
  // Host-side engine stats only: batch wall time never feeds back into any
  // simulation result (runs are pure functions of their configs).
  const auto wall_begin = std::chrono::steady_clock::now();
  last_stats_ = EngineStats{};
  last_stats_.tasks = static_cast<std::int64_t>(n);

  std::vector<std::exception_ptr> errors(n);
  const auto run_one = [&task, &errors](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (jobs_ <= 1 || n <= 1) {
    // Serial reference path: identical code shape, no threads involved.
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    // Each worker claims the next unclaimed index until none is left, and
    // writes only that task's slots and its own per-worker count. Joining
    // publishes all of those writes to this thread.
    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
    std::vector<std::int64_t> executed(workers, 0);
    std::atomic<std::size_t> next{0};
    {
      std::vector<std::jthread> threads;
      threads.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          for (std::size_t i = next++; i < n; i = next++) {
            run_one(i);
            ++executed[w];
          }
        });
      }
    }  // joins every started worker, also when starting the next one throws
    last_stats_.workers = workers;
    last_stats_.per_worker_executed = std::move(executed);
  }
  const auto wall_end = std::chrono::steady_clock::now();
  last_stats_.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_begin).count();

  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace hpcs::exp
