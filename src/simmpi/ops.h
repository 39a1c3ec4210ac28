#pragma once
// The MPI-like operation vocabulary rank programs are written in. A program
// is an op generator; the runtime (MpiWorld) interprets ops on top of the
// simulated kernel. The subset mirrors what the paper's workloads use:
// compute, mpi_barrier (MetBench), mpi_isend/mpi_irecv/mpi_waitall (BT-MZ)
// and blocking send/recv chains (SIESTA).

#include <cstdint>
#include <variant>

#include "common/types.h"

namespace hpcs::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Compute `work` units (1 unit = 1 ns at single-thread speed).
struct OpCompute {
  Work work = 0;
};

/// Global barrier across all ranks of the world.
struct OpBarrier {};

/// Eager, non-blocking point-to-point send (completes locally at once).
struct OpSend {
  int dst = 0;
  int tag = 0;
  std::int64_t bytes = 0;
};

/// Blocking receive; matches on (src, tag), either may be a wildcard.
struct OpRecv {
  int src = kAnySource;
  int tag = kAnyTag;
};

/// Non-blocking send; like OpSend but conceptually tracked by OpWaitAll.
struct OpIsend {
  int dst = 0;
  int tag = 0;
  std::int64_t bytes = 0;
};

/// Non-blocking receive: posts a pending request satisfied by OpWaitAll.
struct OpIrecv {
  int src = kAnySource;
  int tag = kAnyTag;
};

/// Block until every posted OpIrecv has matched an incoming message.
struct OpWaitAll {};

/// All-reduce across the world: synchronizes like a barrier, costs two
/// log2(N) tree phases of message latency for `bytes` payload.
struct OpAllreduce {
  std::int64_t bytes = 8;
};

/// Statistics hook: the rank finished an application-level iteration.
struct OpMarkIteration {};

/// Terminate the rank.
struct OpExit {};

using MpiOp = std::variant<OpCompute, OpBarrier, OpSend, OpRecv, OpIsend, OpIrecv, OpWaitAll,
                           OpAllreduce, OpMarkIteration, OpExit>;

/// A rank's behaviour: a deterministic op stream. `next()` is called each
/// time the previous op completes; returning OpExit ends the rank.
class RankProgram {
 public:
  virtual ~RankProgram() = default;
  virtual MpiOp next() = 0;
};

}  // namespace hpcs::mpi
