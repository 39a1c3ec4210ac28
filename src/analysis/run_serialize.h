#pragma once
// Bit-exact RunResult <-> bytes. Every scalar is little-endian and doubles
// travel as their IEEE-754 bit patterns, never as decimal text, so two runs
// serialize to the same bytes exactly when every value field agrees to the
// last bit, so whole runs can be compared by comparing their blobs.
//
// Scope: the value fields only. The host-side handles (tracer, recorder,
// chrome) do not serialize; deserialize_run_result leaves them empty.

#include <string>

#include "analysis/experiment.h"

namespace hpcs::analysis {

/// Serialize the value fields of `r` (version-tagged; tracer/recorder/chrome
/// excluded).
[[nodiscard]] std::string serialize_run_result(const RunResult& r);

/// Inverse of serialize_run_result. False on malformed/mismatched bytes
/// (truncated, trailing bytes, wrong version, out-of-range enum or count);
/// `out` is unspecified in that case.
[[nodiscard]] bool deserialize_run_result(const std::string& bytes, RunResult& out);

}  // namespace hpcs::analysis
