// hpcslint CLI. Exit status 0 = clean, 1 = findings, 2 = usage/io error.
//
//   hpcslint [roots...]              lint *.h/*.hpp/*.cc/*.cpp under each
//                                    root (default roots: src bench tests,
//                                    resolved against the current directory)
//   hpcslint --list-rules            print rule names, one per line
//
// ctest runs this over the real tree (tests/CMakeLists.txt registers
// `hpcslint_tree`).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "hpcslint.h"

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> roots;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-rules") == 0) {
      for (const std::string& r : hpcslint::rule_names()) std::printf("%s\n", r.c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: hpcslint [--list-rules] [roots...]\n");
      return 0;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "hpcslint: unknown option %s (see --help)\n", argv[i]);
      return 2;
    }
    roots.emplace_back(argv[i]);
  }

  if (roots.empty()) {
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

  const std::vector<hpcslint::Finding> findings = hpcslint::lint_tree(roots);
  for (const hpcslint::Finding& f : findings) {
    std::printf("%s\n", hpcslint::format_finding(f).c_str());
  }
  if (findings.empty()) {
    std::fprintf(stderr, "hpcslint: clean\n");
    return 0;
  }
  std::fprintf(stderr, "hpcslint: %zu finding(s)\n", findings.size());
  return 1;
}
