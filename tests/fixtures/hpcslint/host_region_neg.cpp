// Fixture: the conforming twin — wall-clock and ambient-randomness reads
// inside an HPCS_HOST region (the obs file-writer convention) produce no
// findings, with no per-line ALLOW comments.
#include <chrono>
#include <cstdlib>

// HPCS_HOST_BEGIN — sockets/liveness layer: wall clock and env reads are
// this code's whole purpose and never feed deterministic output.
static long now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static const char* log_env() { return std::getenv("HPCS_LOG_LEVEL"); }

static int jitter() { return rand() % 3; }
// HPCS_HOST_END

static long sim_side_clean(long t) { return t + 1; }
