#!/usr/bin/env bash
# The determinism contract of the table, figure and ablation drivers:
# serial == --jobs 4.
#
# Each of table3..6 runs twice with the windowed manifest on (--obs
# --obs-window 10000000000), once at --jobs 1 and once at --jobs 4, in
# OUT_DIR/j1 and OUT_DIR/j4. Stdout and MANIFEST_<name>.json must be
# byte-identical.
# Each of fig3..6 runs the same way with --obs-window 1000000000
# --obs-trace; its stdout, windowed MANIFEST_<name>.json and Chrome trace
# (window counter tracks included) must be byte-identical. So must
# export_figdata's, run the same way, and every file it writes under
# bench_data/.
# Each of the six ablation_* drivers runs the same way (they take no obs
# flags); stdout must be byte-identical.
# The outputs stay in OUT_DIR for later checks (e.g. manifest_diff.py).
#
# Usage: scripts/jobs_identity.sh BENCH_DIR OUT_DIR
set -euo pipefail

bench="$(cd "$1" && pwd)"
out="$2"
mkdir -p "${out}/j1" "${out}/j4"

for t in table3_metbench table4_metbenchvar table5_btmz table6_siesta; do
  for j in 1 4; do
    (cd "${out}/j${j}" &&
      "${bench}/${t}" --jobs "${j}" --obs --obs-window 10000000000 >"${t}.stdout")
  done
  cmp "${out}/j1/${t}.stdout" "${out}/j4/${t}.stdout"
  cmp "${out}/j1/MANIFEST_${t}.json" "${out}/j4/MANIFEST_${t}.json"
  echo "${t}: --jobs 1 == --jobs 4 (stdout, MANIFEST)"
done

for b in fig3_metbench_trace fig4_metbenchvar_trace fig5_btmz_trace fig6_siesta_trace \
         export_figdata; do
  f="${b%_trace}"
  for j in 1 4; do
    (cd "${out}/j${j}" &&
      "${bench}/${b}" --jobs "${j}" --obs-window 1000000000 \
        --obs-trace "${f}.trace.json" >"${f}.stdout")
  done
  for file in "${f}.stdout" "MANIFEST_${f}.json" "${f}.trace.json"; do
    cmp "${out}/j1/${file}" "${out}/j4/${file}"
  done
  echo "${f}: --jobs 1 == --jobs 4 (stdout, MANIFEST, Chrome trace)"
done
diff -r "${out}/j1/bench_data" "${out}/j4/bench_data"
echo "export_figdata: --jobs 1 == --jobs 4 (bench_data/)"

for a in ablation_baselines ablation_heuristics ablation_noise ablation_o1_vs_cfs \
         ablation_policy ablation_throughput; do
  for j in 1 4; do
    (cd "${out}/j${j}" && "${bench}/${a}" --jobs "${j}" >"${a}.stdout")
  done
  cmp "${out}/j1/${a}.stdout" "${out}/j4/${a}.stdout"
  echo "${a}: --jobs 1 == --jobs 4 (stdout)"
done
