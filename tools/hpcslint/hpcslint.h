#pragma once
// hpcslint — the project's determinism & hot-path token lint.
//
// The whole reproduction stands on one contract: a simulation run is a pure
// function of its config, so exp::ParallelRunner can fan sweeps across
// threads with bit-identical results. hpcslint rejects, at the line that
// writes them, the code shapes that quietly break that contract or the
// allocation-free hot paths. Each rule pattern-matches a prepared token
// stream (lexer.h): comments and literal contents are blanked first, so a
// banned name in prose never fires.
//
// Rules (see docs/static_analysis.md for rationale and examples):
//   wallclock        std::chrono::{system,steady,high_resolution}_clock
//   rand             rand/srand/rand_r/drand48, std::random_device, time(...)
//   unordered        any unordered_{map,set,multimap,multiset}: hash order
//                    is not a deterministic iteration order
//   pointer-key      map/set/less/greater keyed on a pointer type
//   hot-alloc        new / make_unique / make_shared / malloc / std::function
//                    and std containers held by value inside
//                    // HPCS_HOT_BEGIN .. // HPCS_HOT_END regions
//   missing-override SchedClass hook declared without `override`
//   tracepoint-name  HPCS_TRACEPOINT id must be a kTp* catalogue enumerator
//
// Whether the simulation core can reach a clock, the environment or an
// entropy source at all is decided at the link, not here: the core_imports
// ctest lists the imports of the whole hpcs_core archive.
//
// `// HPCSLINT-ALLOW(rule)` suppresses a finding on the same line (or the
// next line when the comment stands alone).

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace hpcslint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Lint one translation unit given as text.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& file_label,
                                               std::string_view source);

/// Lint a file on disk (returns a single io-error finding if unreadable).
[[nodiscard]] std::vector<Finding> lint_file(const std::filesystem::path& path);

/// Recursively lint every *.h/*.hpp/*.cc/*.cpp under the given roots,
/// skipping any directory named "fixtures" (fixture files deliberately
/// violate the rules). Files are visited in sorted path order so output is
/// deterministic — the lint practices what it preaches.
[[nodiscard]] std::vector<Finding> lint_tree(const std::vector<std::filesystem::path>& roots);

/// "file:line: [rule] message" — the single line format CI greps.
[[nodiscard]] std::string format_finding(const Finding& f);

/// Every rule name, for --list-rules and the self-test harness.
[[nodiscard]] const std::vector<std::string>& rule_names();

}  // namespace hpcslint
