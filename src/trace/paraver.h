#pragma once
// PARAVER trace export — the tool the paper itself used ("we used PARAVER
// to collect data and statistics and to show the trace of each process").
// Writes the classic three-file set:
//   .prv  the trace: header + state records (1:cpu:appl:task:thread:t0:t1:state)
//   .pcf  the config: state value -> label/colour mapping
//   .row  object labels
// so the regenerated traces can be loaded into real Paraver/wxparaver.

#include <ostream>
#include <string>
#include <vector>

#include "trace/tracer.h"

namespace hpcs::trace {

/// Paraver state values used by the exporter (matching the standard
/// MPI-trace convention: 1 = Running, 6 = Waiting/blocked).
inline constexpr int kPrvStateRunning = 1;
inline constexpr int kPrvStateWaiting = 6;

/// Paraver user-event type for hardware thread priority changes (type 2
/// records: "2:cpu:appl:task:thread:time:type:value").
inline constexpr int kPrvEventHwPrio = 77000001;

struct ParaverJob {
  std::vector<Pid> pids;                ///< one Paraver "task" per pid
  std::vector<std::string> labels;      ///< same length as pids
  SimTime end = SimTime::zero();        ///< trace end (0 = auto from intervals)
  int cpus = 4;
  std::string application = "hpcsched";
};

/// Write the .prv trace body for the given tasks.
void write_prv(std::ostream& os, const Tracer& tracer, const ParaverJob& job);

/// Write the .pcf semantic configuration.
void write_pcf(std::ostream& os);

/// Write the .row object hierarchy labels.
void write_row(std::ostream& os, const ParaverJob& job);

/// Convenience: write all three files with a common path prefix, each
/// through obs::write_text_file. Returns false if any file could not be
/// opened or did not get all its bytes (one warning on stderr per file).
bool export_paraver(const std::string& prefix, const Tracer& tracer, const ParaverJob& job);

}  // namespace hpcs::trace
