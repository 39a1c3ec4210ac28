// A deliberately impure probe for the core_imports_detects_poison ctest: it
// reads the wall clock and the environment and fills a hash container, and
// is linked with the whole hpcs_core archive like
// tests/core_imports/probe.cpp. The import check must reject it and name all
// three imports.
#include <chrono>
#include <cstdlib>
#include <unordered_set>

int main() {
  const auto ticks = std::chrono::steady_clock::now().time_since_epoch().count();
  const char* home = std::getenv("HOME");
  std::unordered_set<long> seen;
  seen.insert(ticks);
  return (seen.empty() && home == nullptr) ? 1 : 0;
}
