#!/usr/bin/env bash
# CI pipeline: the full static-analysis + sanitizer matrix.
#
#   pass 1  release-strict   Release,        -Werror, ctest (core_imports,
#                            the allocation test, windowed manifests byte
#                            for byte vs goldens and the rest),
#                            micro_simcore's events/sec floors, serial ==
#                            --jobs 4 for table3..6, fig3..6 and the six
#                            ablations, bench_data/ vs a fresh
#                            export_figdata, perfbench tests
#   pass 2  asan-ubsan       RelWithDebInfo, -Werror, ASan+UBSan,
#                            _GLIBCXX_ASSERTIONS, ctest
#   pass 3  tsan             RelWithDebInfo, -Werror, TSan, ctest
#   pass 4  clang            (only if clang++ is installed) Release,
#                            -Werror, ctest, and clang-tidy if available
#
# Usage:
#   scripts/ci_sanitizers.sh              # full matrix
#   HPCS_CI_TSAN=0 scripts/ci_sanitizers.sh   # skip the TSan pass
#   HPCS_CI_FAST=1 scripts/ci_sanitizers.sh   # pass 1 only (pre-push check)
#
# Any warning, test failure, sanitizer report, byte difference or floor
# miss fails the pipeline (set -e + -Werror + ctest and driver exit codes).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc)"

configure_and_test() {
  local name="$1" build_dir="$2"; shift 2
  echo "=== pass: ${name} ==="
  cmake -B "${build_dir}" -S . -DHPCS_WERROR=ON "$@" >/dev/null
  cmake --build "${build_dir}" -j "${JOBS}"
  (cd "${build_dir}" && ctest --output-on-failure)
}

# --- pass 1: strict release build, tests, floors, byte identity ----------
configure_and_test "release-strict" build-ci -DCMAKE_BUILD_TYPE=Release

echo "=== event-core floors ==="
# micro_simcore exits 1 below any of its events/sec floors (one FAIL line
# each) or when its serial and parallel batches differ.
(cd build-ci/bench && ./micro_simcore)

echo "=== determinism: serial == --jobs 4, bench_data/, Chrome trace ==="
# With --obs-window on, every table driver's stdout and manifest must be
# byte-identical for --jobs 1 and --jobs 4, and so must every figure
# driver's and export_figdata's stdout, manifest and Chrome trace (and
# export_figdata's bench_data/), and every ablation driver's stdout;
# export_figdata must also reproduce every checked-in bench_data/ file byte
# for byte, and a figure driver's --obs-trace output must load as Chrome
# trace-event JSON. (The windowed manifests' goldens are the
# manifest_goldens ctest above.)
scripts/jobs_identity.sh build-ci/bench build-ci/jobs-identity
scripts/figdata_identity.sh build-ci/bench build-ci/figdata-identity
(cd build-ci/bench &&
  ./fig3_metbench_trace --jobs 2 --obs-trace obs_fig3_trace.json >/dev/null)
python3 -c "
import json
doc = json.load(open('build-ci/bench/obs_fig3_trace.json'))
assert doc['traceEvents'], 'Chrome trace has no events'
print(f'Chrome trace loads: {len(doc[\"traceEvents\"])} events')
"

echo "=== perfbench: benchmark build from src/, --selftest, short runs ==="
# The paper-workload benchmark compiles its own copy of src/; its tests
# build it, run --selftest, then short metbenchvar runs untraced and traced.
python3 -m unittest discover -s perfbench/tests

if [[ "${HPCS_CI_FAST:-0}" == "1" ]]; then
  echo "HPCS_CI_FAST=1: skipping sanitizer passes"
  echo "ci pipeline passed (fast mode)"
  exit 0
fi

# --- pass 2: ASan+UBSan ----------------------------------------------------
configure_and_test "asan-ubsan" build-asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DENABLE_SANITIZERS=ON

# --- pass 3: TSan (watches the parallel experiment engine) ----------------
if [[ "${HPCS_CI_TSAN:-1}" == "1" ]]; then
  configure_and_test "tsan" build-tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHPCS_TSAN=ON
else
  echo "HPCS_CI_TSAN=0: skipping TSan pass"
fi

# --- pass 4: clang build, tests and clang-tidy (if clang is available) ----
if command -v clang++ >/dev/null 2>&1; then
  configure_and_test "clang" build-clang \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++

  if command -v clang-tidy >/dev/null 2>&1; then
    scripts/run_clang_tidy.sh build-clang
  else
    echo "clang-tidy not installed: skipping"
  fi
else
  echo "clang++ not installed: skipping the clang pass"
fi

echo "ci pipeline passed"
