#pragma once
// MetBench (paper §V-A): the BSC Minimum Execution Time Benchmark — a
// master/worker framework where every worker executes its assigned load and
// then synchronizes with the others through an mpi_barrier before the next
// iteration. Imbalance is introduced by giving the two workers sharing a core
// different loads.
//
// Calibration (Table III): the baseline shows workers at ~25% and ~100%
// utilization and 81.78 s execution time, i.e. a 4:1 load ratio and
// ~2.04 s iterations over 40 iterations.

#include <memory>
#include <vector>

#include "simmpi/ops.h"

namespace hpcs::wl {

using ProgramSet = std::vector<std::unique_ptr<mpi::RankProgram>>;

struct MetBenchConfig {
  int iterations = 40;
  /// Work units (ns at ST speed) per worker per iteration. The default is
  /// the Table III setup: small/large alternating per core pair, ratio 1:4,
  /// large load 1.33e9 (≈2.05 s per iteration at equal SMT priorities).
  /// The framework's master process is one more (mostly idle) rank: a
  /// small fifth load, e.g. 1.0e5.
  std::vector<double> loads = {0.3325e9, 1.33e9, 0.3325e9, 1.33e9};
};

/// One program per load, in order.
ProgramSet make_metbench(const MetBenchConfig& cfg);

}  // namespace hpcs::wl
