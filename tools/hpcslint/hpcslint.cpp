// hpcslint v3 driver: per-TU analysis + cross-TU link, shared by every
// entry point (single source string, unit list, file, tree). The pipeline:
//
//   prepare()  blank comments/strings, harvest ALLOW + HPCS_HOT regions
//   tokenize() identifier/number/punct token stream
//   token rules (token_rules.cpp)  — v1 pattern rules, unchanged behaviour
//   parse_tu() (parser.cpp)        — scopes, symbols, per-TU findings
//   link_program() (project.cpp)   — merge symbols across TUs, resolve
//                                    pending uses/writes, dispatch-aware
//                                    call graph, taint closure, lock-order
//                                    graph, lockset race analysis
//
// The per-TU stage is embarrassingly parallel: with jobs > 1 it fans out
// over an exp::ThreadPool into caller-owned slots (one per unit), then the
// link step runs serially over the slots in unit order — the same recipe as
// exp::ParallelRunner, so output is byte-identical to the serial run.
// Findings are globally sorted by (file, line, rule, message) so output is
// reproducible regardless of TU order — the lint practices what it preaches.

#include <algorithm>
#include <fstream>
#include <sstream>

#include "exp/thread_pool.h"
#include "hpcslint.h"
#include "rules.h"
#include "tu.h"

namespace hpcslint {
namespace {

/// Canonical finding order: (file, line, rule, message). Every entry point
/// returns findings in this order, so SARIF fingerprint occurrence indices
/// stay stable.
void sort_findings(std::vector<Finding>& fs) {
  std::sort(fs.begin(), fs.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
}

bool read_file(const std::filesystem::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

std::vector<Finding> lint_units(const std::vector<SourceUnit>& units, unsigned jobs) {
  // Per-TU stage: pure function of one unit, written into its own slot.
  std::vector<TuIndex> tus(units.size());
  const auto analyze_one = [&](std::size_t i) {
    TuIndex tu = parse_tu(units[i].label, units[i].text);
    Sink sink(tu.file, tu.prep, tu.local_findings);
    run_token_rules(tu.prep, tu.toks, sink);
    tus[i] = std::move(tu);
  };
  if (jobs > 1 && units.size() > 1) {
    hpcs::exp::ThreadPool pool(jobs);
    for (std::size_t i = 0; i < units.size(); ++i) {
      pool.submit([&analyze_one, i] { analyze_one(i); });
    }
    pool.wait_idle();
  } else {
    for (std::size_t i = 0; i < units.size(); ++i) analyze_one(i);
  }

  // Link stage: serial over the slots in unit order — identical inputs in
  // identical order regardless of how the parse stage was scheduled.
  std::vector<Finding> findings;
  link_program(tus, findings);
  for (TuIndex& tu : tus) {
    findings.insert(findings.end(), tu.local_findings.begin(), tu.local_findings.end());
  }
  sort_findings(findings);
  return findings;
}

std::vector<Finding> lint_source(const std::string& file_label,
                                 std::string_view source) {
  return lint_units({SourceUnit{file_label, std::string(source)}});
}

std::vector<Finding> lint_file(const std::filesystem::path& path) {
  std::string text;
  if (!read_file(path, text)) {
    return {Finding{path.string(), 0, "io-error", "cannot read file"}};
  }
  return lint_source(path.string(), text);
}

std::vector<Finding> lint_tree(const std::vector<std::filesystem::path>& roots,
                               unsigned jobs) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (!fs::exists(root, ec)) continue;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(root, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (it->is_directory(ec)) {
        const std::string name = it->path().filename().string();
        if (name == "fixtures" || name == "hpcslint_fixtures") {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<SourceUnit> units;
  std::vector<Finding> io_errors;
  units.reserve(files.size());
  for (const auto& path : files) {
    std::string text;
    if (!read_file(path, text)) {
      io_errors.push_back(Finding{path.string(), 0, "io-error", "cannot read file"});
      continue;
    }
    units.push_back(SourceUnit{path.string(), std::move(text)});
  }

  std::vector<Finding> findings = lint_units(units, jobs);
  findings.insert(findings.end(), io_errors.begin(), io_errors.end());
  sort_findings(findings);
  return findings;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "wallclock",       "rand",        "unordered-iter",
      "pointer-key",     "hot-alloc",   "missing-override",
      "tracepoint-name", "det-taint",   "lock-order",
      "lock-guard",      "shared-race",
  };
  return kNames;
}

}  // namespace hpcslint
