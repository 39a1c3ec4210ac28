#pragma once
// Per-run metrics manifest: the deterministic JSON dump of one or more
// MetricsSnapshots. The renderer lives in src/obs (not bench/) so the tests
// can assert byte-identity between serial and parallel sweeps without
// depending on bench headers; bench drivers wrap it to write
// MANIFEST_<name>.json.
//
// Everything here is a pure function of the snapshots: fixed key order,
// fixed number formatting (%.10g), no wall-clock anywhere, so the file can
// be compared byte for byte. Each count is one row, and no row repeats
// another; a count taken during the run is also a window column.

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hpcs::obs {

/// Schema v2 = v1 (totals, fixed metric layout) + a per-run "windows" block
/// carrying the deterministic windowed time series (empty when --obs-window
/// was not given). Nothing writes or reads v1; the table drivers' byte
/// goldens pin v2, and scripts/manifest_diff.py is its one reader.
inline constexpr const char* kManifestSchema = "hpcs-obs-manifest-v2";

struct ManifestRun {
  std::string name;  ///< run/mode label, e.g. "hpc_fifo_prio"
  MetricsSnapshot metrics;
};

/// Render the manifest document (schema kManifestSchema) for `bench`.
[[nodiscard]] std::string render_manifest_json(const std::string& bench,
                                               const std::vector<ManifestRun>& runs);

/// Render + write to `path`. Returns false on I/O error.
bool write_manifest_json(const std::string& path, const std::string& bench,
                         const std::vector<ManifestRun>& runs);

}  // namespace hpcs::obs
