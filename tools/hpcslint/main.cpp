// hpcslint CLI. Exit status 0 = clean, 1 = findings, 2 = usage/io error.
//
//   hpcslint [roots...]              lint *.h/*.hpp/*.cc/*.cpp under each
//                                    root (default roots: src bench tests,
//                                    resolved against the current directory)
//   hpcslint --compile-commands F    take the translation-unit set from a
//                                    CMake compile_commands.json instead of
//                                    directory roots
//   hpcslint --sarif FILE            also write a SARIF 2.1.0 report
//                                    ("-" = stdout)
//   hpcslint --baseline FILE         suppress findings whose fingerprint is
//                                    in this SARIF baseline; exit 1 only on
//                                    NEW findings
//   hpcslint --jobs N                parse translation units on N pool
//                                    threads (output byte-identical to -j1)
//   hpcslint --list-rules            print rule names, one per line
//
// CI runs this over the real tree via ctest (tests/CMakeLists.txt registers
// `hpcslint_tree`) and the hpcslint-sarif workflow job, which lints from
// compile_commands.json and gates on tools/hpcslint/baseline.sarif.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hpcslint.h"

namespace {

bool write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> roots;
  std::string sarif_path;
  std::string baseline_path;
  std::string compile_commands;
  unsigned jobs = 1;

  // Paths in fingerprints, SARIF output, and messages are repo-relative:
  // relativize against the working directory (CI and the baseline script
  // both run from the repository root).
  std::error_code cwd_ec;
  const std::filesystem::path cwd = std::filesystem::current_path(cwd_ec);
  if (!cwd_ec) hpcslint::set_sarif_path_root(cwd);

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "hpcslint: %s requires a value\n", argv[i]);
      return nullptr;
    }
    return argv[i + 1];
  };

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-rules") == 0) {
      for (const std::string& r : hpcslint::rule_names()) std::printf("%s\n", r.c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: hpcslint [--list-rules] [--compile-commands FILE]\n"
          "                [--sarif FILE|-] [--baseline FILE] [--jobs N] "
          "[roots...]\n");
      return 0;
    }
    if (std::strcmp(argv[i], "--jobs") == 0 || std::strcmp(argv[i], "-j") == 0) {
      const char* v = need_value(i);
      if (v == nullptr) return 2;
      const long parsed = std::strtol(v, nullptr, 10);
      if (parsed < 1 || parsed > 256) {
        std::fprintf(stderr, "hpcslint: --jobs wants 1..256, got %s\n", v);
        return 2;
      }
      jobs = static_cast<unsigned>(parsed);
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--sarif") == 0) {
      const char* v = need_value(i);
      if (v == nullptr) return 2;
      sarif_path = v;
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--baseline") == 0) {
      const char* v = need_value(i);
      if (v == nullptr) return 2;
      baseline_path = v;
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--compile-commands") == 0) {
      const char* v = need_value(i);
      if (v == nullptr) return 2;
      compile_commands = v;
      ++i;
      continue;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "hpcslint: unknown option %s (see --help)\n", argv[i]);
      return 2;
    }
    roots.emplace_back(argv[i]);
  }

  if (!compile_commands.empty()) {
    if (!roots.empty()) {
      std::fprintf(stderr,
                   "hpcslint: --compile-commands and explicit roots are "
                   "mutually exclusive\n");
      return 2;
    }
    std::string error;
    if (!hpcslint::files_from_compile_commands(compile_commands, roots, error)) {
      std::fprintf(stderr, "hpcslint: %s\n", error.c_str());
      return 2;
    }
  } else if (roots.empty()) {
    for (const char* d : {"src", "bench", "tests"}) {
      if (std::filesystem::is_directory(d)) roots.emplace_back(d);
    }
    if (roots.empty()) {
      std::fprintf(stderr, "hpcslint: no roots given and none of src/bench/tests "
                           "exist in the current directory\n");
      return 2;
    }
  } else {
    for (const std::filesystem::path& r : roots) {
      if (!std::filesystem::exists(r)) {
        std::fprintf(stderr, "hpcslint: no such file or directory: %s\n",
                     r.string().c_str());
        return 2;
      }
    }
  }

  const std::vector<hpcslint::Finding> findings = hpcslint::lint_tree(roots, jobs);

  if (!sarif_path.empty()) {
    if (!write_text(sarif_path, hpcslint::sarif_report(findings))) {
      std::fprintf(stderr, "hpcslint: cannot write %s\n", sarif_path.c_str());
      return 2;
    }
  }

  std::vector<hpcslint::Finding> gate = findings;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "hpcslint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::set<std::string> baseline;
    std::string error;
    if (!hpcslint::load_baseline(ss.str(), baseline, error)) {
      std::fprintf(stderr, "hpcslint: bad baseline %s: %s\n",
                   baseline_path.c_str(), error.c_str());
      return 2;
    }
    gate = hpcslint::filter_baselined(findings, baseline);
  }

  for (const hpcslint::Finding& f : gate) {
    std::printf("%s\n", hpcslint::format_finding(f).c_str());
  }
  if (gate.empty()) {
    if (!baseline_path.empty() && !findings.empty()) {
      std::fprintf(stderr, "hpcslint: clean (%zu baselined finding(s) suppressed)\n",
                   findings.size());
    } else {
      std::fprintf(stderr, "hpcslint: clean\n");
    }
    return 0;
  }
  std::fprintf(stderr, "hpcslint: %zu %sfinding(s)\n", gate.size(),
               baseline_path.empty() ? "" : "new ");
  return 1;
}
