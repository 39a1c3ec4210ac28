#include "exp/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

namespace hpcs::exp {

unsigned default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

bool parse_jobs(const char* text, unsigned& out, std::string& error) {
  const char* end = text + std::strlen(text);
  unsigned jobs = 0;
  const auto [ptr, ec] = std::from_chars(text, end, jobs);
  if (ec != std::errc{} || ptr != end || jobs == 0) {
    error = std::string("'") + text + "' is not a positive integer";
    return false;
  }
  out = jobs;
  return true;
}

std::string render_host_json(const char* bench, unsigned jobs, const EngineStats& s) {
  std::string out = "{\n  \"schema\": \"hpcs-obs-host-v2\",\n";
  out += std::string("  \"bench\": \"") + bench + "\",\n";
  out += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  out += "  \"engine\": {\n";
  out += "    \"tasks\": " + std::to_string(s.tasks) + ",\n";
  out += "    \"workers\": " + std::to_string(s.workers) + ",\n";
  out += "    \"per_worker_executed\": [";
  for (std::size_t i = 0; i < s.per_worker_executed.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(s.per_worker_executed[i]);
  }
  char wall_ms[64];
  std::snprintf(wall_ms, sizeof(wall_ms), "%.10g", s.wall_ms);
  out += std::string("],\n    \"wall_ms\": ") + wall_ms + "\n  }\n}\n";
  return out;
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
