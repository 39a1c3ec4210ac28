#!/usr/bin/env bash
# Run clang-tidy (config: .clang-tidy at the repo root) over the first-party
# tree using a compile database. Usage:
#   scripts/run_clang_tidy.sh [build-dir]
# The build dir is configured with CMAKE_EXPORT_COMPILE_COMMANDS if it does
# not already have a compile_commands.json. Exits 0 with a notice when
# clang-tidy is not installed so local gcc-only setups are not blocked.
set -euo pipefail

cd "$(dirname "$0")/.."

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "run_clang_tidy: clang-tidy not installed, skipping (CI's clang job runs it)"
  exit 0
fi

BUILD_DIR="${1:-build-tidy}"
if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

# First-party sources only: tidy has no business in _deps or fixtures.
mapfile -t SOURCES < <(find src bench tests examples -name '*.cpp' \
  -not -path '*/fixtures/*' | sort)

echo "clang-tidy over ${#SOURCES[@]} files (config: .clang-tidy)"
clang-tidy -p "${BUILD_DIR}" --quiet --warnings-as-errors='*' "${SOURCES[@]}"
echo "clang-tidy: clean"
