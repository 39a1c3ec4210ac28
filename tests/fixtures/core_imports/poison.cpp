// A deliberately impure probe for the core_imports_detects_poison ctest: it
// reads the wall clock and the environment, and is linked with the whole
// hpcs_core archive like tests/core_imports/probe.cpp. The import check must
// reject it and name both symbols.
#include <chrono>
#include <cstdlib>

int main() {
  const auto ticks = std::chrono::steady_clock::now().time_since_epoch().count();
  const char* home = std::getenv("HOME");
  return (ticks == 0 && home == nullptr) ? 1 : 0;
}
