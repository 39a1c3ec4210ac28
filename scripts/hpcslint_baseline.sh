#!/usr/bin/env bash
# Regenerate tools/hpcslint/baseline.sarif.json — the accepted-findings
# baseline the CI hpcslint-sarif job gates against. Run from the repo root
# after intentionally accepting a new finding (prefer fixing the finding or
# an inline HPCSLINT-ALLOW; the baseline is for findings that are real but
# deliberately deferred). Requires a configured build directory so
# compile_commands.json exists.
set -euo pipefail

BUILD_DIR="${1:-build}"

if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "error: $BUILD_DIR/compile_commands.json not found." >&2
  echo "Configure first: cmake -B $BUILD_DIR -S ." >&2
  exit 2
fi

cmake --build "$BUILD_DIR" --target hpcslint -j >/dev/null

# Exit 1 (findings exist) is fine here — the point of a baseline is to record
# them; only usage/io errors (exit 2) should abort.
rc=0
"$BUILD_DIR/tools/hpcslint/hpcslint" \
  --compile-commands "$BUILD_DIR/compile_commands.json" \
  --sarif tools/hpcslint/baseline.sarif.json >/dev/null || rc=$?
if [[ $rc -ge 2 ]]; then
  echo "error: hpcslint failed (exit $rc)" >&2
  exit "$rc"
fi

count=$(grep -c '"ruleId"' tools/hpcslint/baseline.sarif.json || true)
echo "wrote tools/hpcslint/baseline.sarif.json ($count baselined finding(s))"
echo "Review the diff before committing: every entry is a finding CI will ignore."
