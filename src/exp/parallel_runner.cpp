#include "exp/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

namespace hpcs::exp {

unsigned default_jobs() {
  if (const char* env = std::getenv("HPCS_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

unsigned parse_jobs_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[i + 1], nullptr, 10);
      if (v >= 1) return static_cast<unsigned>(v);
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
      const long v = std::strtol(a + 7, nullptr, 10);
      if (v >= 1) return static_cast<unsigned>(v);
    }
  }
  return default_jobs();
}

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {}

void ParallelRunner::run_all(std::vector<std::function<void()>> tasks) {
  // Host-side engine stats only: batch wall time never feeds back into any
  // simulation result (runs are pure functions of their configs).
  const auto wall_begin = std::chrono::steady_clock::now();
  last_stats_ = EngineStats{};
  last_stats_.tasks = static_cast<std::int64_t>(tasks.size());

  std::vector<std::exception_ptr> errors(tasks.size());
  const auto run_one = [&tasks, &errors](std::size_t i) {
    try {
      tasks[i]();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (jobs_ <= 1 || tasks.size() <= 1) {
    // Serial reference path: identical code shape, no threads involved.
    for (std::size_t i = 0; i < tasks.size(); ++i) run_one(i);
  } else {
    // Each worker claims the next unclaimed index until none is left, and
    // writes only that task's slots and its own per-worker count. Joining
    // publishes all of those writes to this thread.
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, tasks.size()));
    std::vector<std::int64_t> executed(workers, 0);
    std::atomic<std::size_t> next{0};
    {
      std::vector<std::jthread> threads;
      threads.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          for (std::size_t i = next++; i < tasks.size(); i = next++) {
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
