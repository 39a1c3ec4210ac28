#!/usr/bin/env bash
# Pins the figure data byte for byte: export_figdata runs in OUT_DIR, and
# every file checked in under bench_data/ must equal its fresh counterpart.
# SIESTA's trace and its interval/iteration CSVs (~6 MB) are not checked in,
# so fig6b is pinned by its .pcf, .row and priority timeline only; its
# windowed manifest (scripts/manifest_golden_table6_v2.json) pins the rest.
#
# Usage: scripts/figdata_identity.sh BENCH_DIR OUT_DIR
set -euo pipefail

bench="$(cd "$1" && pwd)"
out="$2"
repo="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "${out}"
(cd "${out}" && "${bench}/export_figdata" >/dev/null)

n=0
for f in "${repo}"/bench_data/*; do
  cmp "${f}" "${out}/bench_data/$(basename "${f}")"
  n=$((n + 1))
done
echo "bench_data: ${n} checked-in files byte-identical to a fresh export_figdata run"
