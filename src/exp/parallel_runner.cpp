#include "exp/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
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

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {}

void ParallelRunner::run_all(std::size_t n, const std::function<void(std::size_t)>& task) {
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
    // writes only that task's slots. Joining publishes those writes to this
    // thread.
    const std::size_t workers = std::min<std::size_t>(jobs_, n);
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < n; i = next++) run_one(i);
      });
    }
  }  // joins every started worker, also when starting the next one throws

  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace hpcs::exp
