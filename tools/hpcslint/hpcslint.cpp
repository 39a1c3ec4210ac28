// hpcslint driver, shared by every entry point (source string, file, tree).
// Per translation unit:
//
//   prepare()  blank comments/strings, harvest ALLOW + HPCS_HOT regions
//   tokenize() identifier/number/punct token stream
//   token rules (token_rules.cpp)
//
// Findings are sorted by (file, line, rule, message) so output is
// reproducible regardless of visiting order.

#include <algorithm>
#include <fstream>
#include <sstream>

#include "hpcslint.h"
#include "rules.h"

namespace hpcslint {
namespace {

void sort_findings(std::vector<Finding>& fs) {
  std::sort(fs.begin(), fs.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
}

}  // namespace

std::vector<Finding> lint_source(const std::string& file_label,
                                 std::string_view source) {
  const Prepared prep = prepare(source);
  const std::vector<Tok> toks = tokenize(prep.code);
  std::vector<Finding> findings;
  Sink sink(file_label, prep, findings);
  run_token_rules(prep, toks, sink);
  sort_findings(findings);
  return findings;
}

std::vector<Finding> lint_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {Finding{path.string(), 0, "io-error", "cannot read file"}};
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_source(path.string(), ss.str());
}

std::vector<Finding> lint_tree(const std::vector<std::filesystem::path>& roots) {
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
        if (it->path().filename() == "fixtures") it.disable_recursion_pending();
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

  std::vector<Finding> findings;
  for (const auto& path : files) {
    const std::vector<Finding> file_findings = lint_file(path);
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  sort_findings(findings);
  return findings;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "wallclock", "rand",      "unordered",       "pointer-key",
      "hot-alloc", "missing-override", "tracepoint-name",
  };
  return kNames;
}

}  // namespace hpcslint
