#!/usr/bin/env bash
# CI pipeline: the full static-analysis + sanitizer matrix.
#
#   pass 1  release-strict   Release,        -Werror, hpcslint + ctest +
#                            bench smoke-diff against scripts/bench_golden.json,
#                            serial == --jobs 4 for table3..6, windowed
#                            manifests vs goldens, bench_data/ vs a fresh
#                            export_figdata, perfbench tests
#   pass 2  asan-ubsan       RelWithDebInfo, -Werror, ASan+UBSan, ctest
#   pass 3  tsan             RelWithDebInfo, -Werror, TSan, ctest
#   pass 4  clang checks     (only if clang++ is installed) -Wthread-safety
#                            build, the thread-safety negative fixture must
#                            FAIL to compile, and clang-tidy if available
#
# Usage:
#   scripts/ci_sanitizers.sh              # full matrix
#   HPCS_CI_TSAN=0 scripts/ci_sanitizers.sh   # skip the TSan pass
#   HPCS_CI_FAST=1 scripts/ci_sanitizers.sh   # pass 1 only (pre-push check)
#
# Any lint finding, warning, test failure, sanitizer report, or golden-range
# miss fails the pipeline (set -e + -Werror + ctest exit codes).
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

# --- pass 1: strict release build, lint, tests, bench smoke-diff ----------
configure_and_test "release-strict" build-ci -DCMAKE_BUILD_TYPE=Release

echo "=== hpcslint over src/ bench/ tests/ tools/ ==="
# Lint runs are wall-clock budgeted (HPCS_LINT_BUDGET seconds): hpcslint's
# contract is "fast enough to run on every build", and a resolver slipping
# into quadratic behaviour should fail CI, not quietly rot the dev loop.
LINT_BUDGET="${HPCS_LINT_BUDGET:-120}"
lint_t0="$(date +%s)"
./build-ci/tools/hpcslint/hpcslint src bench tests tools

echo "=== hpcslint whole-program (compile_commands.json) vs baseline ==="
./build-ci/tools/hpcslint/hpcslint \
  --compile-commands build-ci/compile_commands.json \
  --baseline tools/hpcslint/baseline.sarif.json
lint_elapsed="$(( $(date +%s) - lint_t0 ))"
echo "hpcslint runtime: ${lint_elapsed}s (budget ${LINT_BUDGET}s)"
if (( lint_elapsed > LINT_BUDGET )); then
  echo "ERROR: hpcslint exceeded its runtime budget (${lint_elapsed}s > ${LINT_BUDGET}s)"
  exit 1
fi

echo "=== bench smoke-diff vs golden ranges ==="
(cd build-ci/bench && ./table3_metbench >/dev/null && ./micro_simcore >/dev/null)

echo "=== observability smoke: manifests + Chrome trace ==="
# A parallel obs run must emit a schema-valid manifest pair (it lands in
# build-ci/bench, where check_bench_json.py schema-validates it below), and a
# figure driver must produce a loadable Chrome-trace JSON. With --obs-window
# on, every table driver's stdout and manifest must be byte-identical for
# --jobs 1 and --jobs 4 (BENCH_*.json apart from "jobs"), and the windowed
# series of every table must match its checked-in golden (the golden pins
# the trajectory, manifest_diff.py flags mid-run drift even when totals
# agree), and export_figdata must reproduce every checked-in bench_data/
# file byte for byte.
(cd build-ci/bench && ./table3_metbench --jobs 2 --obs --obs-window 10000000000 >/dev/null)
scripts/jobs_identity.sh build-ci/bench build-ci/jobs-identity
python3 scripts/manifest_diff.py scripts/manifest_golden_v2.json \
  build-ci/jobs-identity/j4/MANIFEST_table3_metbench.json
for t in table4_metbenchvar table5_btmz table6_siesta; do
  python3 scripts/manifest_diff.py "scripts/manifest_golden_${t%%_*}_v2.json" \
    "build-ci/jobs-identity/j4/MANIFEST_${t}.json"
done
scripts/figdata_identity.sh build-ci/bench build-ci/figdata-identity
(cd build-ci/bench &&
  ./fig3_metbench_trace --obs-trace obs_fig3_trace.json >/dev/null)
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

python3 scripts/check_bench_json.py scripts/bench_golden.json build-ci/bench

echo "=== bench-smoke: events/sec floors (>30% regression fails) ==="
python3 scripts/check_perf_floor.py scripts/perf_floor.json build-ci/bench

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

# --- pass 4: clang thread-safety analysis (if clang is available) ---------
if command -v clang++ >/dev/null 2>&1; then
  configure_and_test "clang-thread-safety" build-clang \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++

  echo "=== thread-safety negative fixture must FAIL to compile ==="
  if clang++ -std=c++20 -Isrc -fsyntax-only -Wthread-safety \
      -Werror=thread-safety tests/fixtures/thread_safety_negative.cpp \
      2>/tmp/hpcs_ts_negative.log; then
    echo "ERROR: thread_safety_negative.cpp compiled clean — the analysis is off"
    exit 1
  fi
  grep -q "thread-safety" /tmp/hpcs_ts_negative.log || {
    echo "ERROR: fixture failed for a reason other than -Wthread-safety:"
    cat /tmp/hpcs_ts_negative.log
    exit 1
  }
  echo "fixture rejected as expected (unguarded GUARDED_BY access)"

  if command -v clang-tidy >/dev/null 2>&1; then
    scripts/run_clang_tidy.sh build-clang
  else
    echo "clang-tidy not installed: skipping"
  fi
else
  echo "clang++ not installed: skipping thread-safety pass (gcc builds ignore the annotations)"
fi

echo "ci pipeline passed"
