#pragma once
// hpcslint v4 — the project's whole-program determinism & concurrency lint.
//
// The whole reproduction stands on one contract: a simulation run is a pure
// function of its config, so exp::ParallelRunner can fan sweeps across
// threads with bit-identical results. hpcslint statically rejects the code
// shapes that quietly break that contract. v1 was a single-pass lexer; v2
// added a small dependency-free C++ front end — tokenizer (lexer.h) →
// tolerant recursive-descent declaration/scope parser with a per-TU symbol
// table (tu.h, parser.cpp) → cross-TU link step (project.cpp) driven by the
// file set (optionally from build/compile_commands.json). v3 makes the link
// step dispatch-aware: calls resolve by qualified name (exact-first, never
// bare suffix), member calls resolve through the class-hierarchy graph with
// virtual fan-out to every override, lambdas and `&function` values bound
// into `std::function`/`InplaceFunction` slots become call-graph edges from
// their dispatch sites, and template bodies are analyzed structurally (one
// symbol per primary template). No libclang: the portable build stays
// self-contained, and every heuristic is documented at its implementation.
//
// Rule families (see docs/static_analysis.md for rationale and examples):
//
//  token rules (v1, unchanged behaviour):
//   wallclock        std::chrono::{system,steady,high_resolution}_clock
//   rand             rand/srand/rand_r/drand48, std::random_device, time(...)
//   hot-alloc        new / make_unique / make_shared / malloc / std::function
//                    and std containers held by value inside
//                    // HPCS_HOT_BEGIN .. // HPCS_HOT_END regions
//   missing-override SchedClass hook declared without `override`
//   tracepoint-name  HPCS_TRACEPOINT id must be a kTp* catalogue enumerator
//
//  scoped container rules (v2: symbol-resolving, incl. class members across
//  translation units):
//   unordered-iter   iterating a variable declared as unordered_{map,set}
//   pointer-key      map/set/less/greater keyed on a pointer type, and
//                    iteration over a pointer-keyed ordered container
//
//  whole-program rules (v2, dispatch-aware since v3):
//   det-taint        a function in the deterministic core (simcore/kernel/
//                    power5/obs) transitively reaches a nondeterminism
//                    source through the call graph — including through
//                    virtual overrides and bound callbacks
//   lock-order       cycle in the MutexLock acquisition-order graph
//   lock-guard       write to a GUARDED_BY field outside any lock scope
//
//  whole-program concurrency (v4):
//   shared-race      a class field reached from ≥2 inferred thread contexts
//                    (exp::ThreadPool submissions, std::thread bodies, the
//                    main context) whose interprocedurally propagated lockset
//                    is empty or inconsistent — reported with a GUARDED_BY
//                    suggestion
//
// `// HPCSLINT-ALLOW(rule)` suppresses a finding on the same line (or the
// next line when the comment stands alone). `// HPCS_HOST_BEGIN` ..
// `// HPCS_HOST_END` marks a *host region* — deliberate host-environment
// code (wall clocks, env vars, file writers; e.g. the src/obs exporters) —
// which blanket-allows exactly the wallclock/rand/det-taint family instead
// of demanding one ALLOW per line; all other rules still apply
// inside. Findings can also be baselined: emit SARIF with --sarif, check the
// file in, and CI gates on *new* findings only (fingerprints not present in
// the baseline).

#include <filesystem>
#include <set>
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

/// One in-memory translation unit for lint_units(): `label` is used as
/// Finding::file and decides path-based protection for det-taint.
struct SourceUnit {
  std::string label;
  std::string text;
};

/// Lint one translation unit given as text — a single-TU project: all rule
/// families run, cross-TU resolution simply has nothing extra to see.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& file_label,
                                               std::string_view source);

/// Lint a set of translation units as one program: per-TU rules on each,
/// then the link step (symbol merge, call graph, taint, lock graph) across
/// all of them. This is what lint_tree and the compile_commands driver use;
/// the multi-TU fixtures call it directly. `jobs > 1` runs the per-TU
/// lex/parse stage on an exp::ThreadPool; results are merged in unit order
/// and the link step runs serially, so output is byte-identical to jobs=1.
[[nodiscard]] std::vector<Finding> lint_units(const std::vector<SourceUnit>& units,
                                              unsigned jobs = 1);

/// Lint a file on disk (returns a single io-error finding if unreadable).
[[nodiscard]] std::vector<Finding> lint_file(const std::filesystem::path& path);

/// Recursively lint every *.h/*.hpp/*.cc/*.cpp under the given roots as one
/// program, skipping any directory named "fixtures" (fixture files
/// deliberately violate the rules). Files are visited in sorted path order
/// so output is deterministic — the lint practices what it preaches.
[[nodiscard]] std::vector<Finding> lint_tree(const std::vector<std::filesystem::path>& roots,
                                             unsigned jobs = 1);

/// "file:line: [rule] message" — the single line format CI greps.
[[nodiscard]] std::string format_finding(const Finding& f);

/// Every rule name, for --list-rules and the self-test harness.
[[nodiscard]] const std::vector<std::string>& rule_names();

// ---------------------------------------------------------------------------
// SARIF 2.1.0 + baseline (sarif.cpp)

/// Root against which finding paths are relativized in fingerprints and in
/// emitted SARIF locations (and in the messages, which embed paths). Set it
/// to the repository root so baseline.sarif.json is identical regardless of
/// where the checkout lives; "" (the default) leaves paths as given.
void set_sarif_path_root(const std::filesystem::path& root);

/// `file` relative to the configured root when it lies under it ("src/x.cpp"
/// for "/repo/src/x.cpp" with root "/repo"); otherwise unchanged.
[[nodiscard]] std::string sarif_relative_path(const std::string& file);

/// Stable identity of a finding for baseline matching: FNV-1a over
/// root-relative file|rule|message plus a per-identical-tuple occurrence
/// index, so two findings with the same text on different lines baseline
/// independently, whole-file line drift does not invalidate the baseline,
/// and the fingerprints survive checkout-location changes.
[[nodiscard]] std::vector<std::string> fingerprints(const std::vector<Finding>& fs);

/// Render findings as a SARIF 2.1.0 document (one run, one result per
/// finding with a root-relative artifact URI, fingerprint under
/// partialFingerprints."hpcslint/v2").
[[nodiscard]] std::string sarif_report(const std::vector<Finding>& fs);

/// Extract the fingerprint set from a SARIF document previously written by
/// sarif_report (or regenerated via scripts/hpcslint_baseline.sh). Returns
/// false (and fills `error`) on malformed JSON.
[[nodiscard]] bool load_baseline(std::string_view sarif_text,
                                 std::set<std::string>& out, std::string& error);

/// Drop findings whose fingerprint is in `baseline`; the remainder are the
/// *new* findings CI fails on.
[[nodiscard]] std::vector<Finding> filter_baselined(const std::vector<Finding>& fs,
                                                    const std::set<std::string>& baseline);

// ---------------------------------------------------------------------------
// compile_commands.json driver (compile_commands.cpp)

/// Read the translation-unit list from a CMake compile_commands.json:
/// every "file" entry under the repository (external/_deps and fixture
/// paths are skipped), plus every header under the source directories those
/// files live in — headers do not appear in compile commands but carry
/// class definitions the link step needs. Returns false + `error` when the
/// file is missing or malformed.
[[nodiscard]] bool files_from_compile_commands(const std::filesystem::path& json_path,
                                               std::vector<std::filesystem::path>& out,
                                               std::string& error);

}  // namespace hpcslint
