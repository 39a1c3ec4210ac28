#pragma once
// Bit-exact RunResult -> bytes, the byte oracle for whole-run comparisons
// (ticked vs tickless in tests/test_tickless.cpp). Every scalar is
// little-endian and doubles go in as their IEEE-754 bit patterns, never as
// decimal text, so two runs serialize to the same bytes exactly when every
// value field agrees to the last bit. Nothing decodes the bytes.
//
// Scope: the value fields only. The host-side handles (tracer, chrome) are
// not serialized.

#include <string>

#include "analysis/experiment.h"

namespace hpcs::analysis {

/// Serialize the value fields of `r` (version-tagged; tracer/chrome
/// excluded).
[[nodiscard]] std::string serialize_run_result(const RunResult& r);

}  // namespace hpcs::analysis
