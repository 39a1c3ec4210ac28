#!/usr/bin/env bash
# Per-layer split of where a paper driver spends its time.
#
# Builds this checkout with -pg (Release) in BUILD_DIR and runs one driver
# there ten times (gprof samples every 10 ms, so one sub-second run gives too
# few samples). It sums the profiles and buckets the flat-profile self time
# by namespace into the simulator's layers: simcore (hpcs::sim), kernel
# (hpcs::kern), power5 (hpcs::p5), simmpi (hpcs::mpi), hpcsched (hpcs::hpc),
# workloads (hpcs::wl), plus "other" (std::, obs, trace, analysis, exp,
# common). No timer code is compiled into the simulator, so the profile
# cannot perturb determinism.
#
# gprof skips symbols with a '.' suffix other than ".clone.N" /
# ".constprop.N" / ".N", so GCC's ".isra.N", ".part.N" and ".cold" clones
# would be credited, samples and call counts, to whichever symbol precedes
# them in the binary. The script therefore reads a copy of the binary whose
# clones are renamed "<name>.clone.<k>" (objcopy --redefine-syms); the
# profiled code is the one that ran. The flat profile stays in
# BUILD_DIR/layer_profile_run/flat.txt.
#
# Usage: scripts/layer_profile.sh BUILD_DIR [DRIVER [ARGS...]]
#   default driver: table4_metbenchvar --jobs 1
# Prints a markdown table (self seconds and share of the total per layer).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 BUILD_DIR [DRIVER [ARGS...]]" >&2
  exit 2
fi
build="$1"
shift
driver="${1:-table4_metbenchvar}"
if [[ $# -gt 0 ]]; then shift; fi
args=("$@")
if [[ ${#args[@]} -eq 0 ]]; then args=(--jobs 1); fi
repo="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "${build}" -S "${repo}" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
cmake --build "${build}" -j "$(nproc)" --target "${driver}" >/dev/null
run_dir="${build}/layer_profile_run"
binary="${build}/bench/${driver}"
rm -rf "${run_dir}"
mkdir -p "${run_dir}"
for r in 1 2 3 4 5 6 7 8 9 10; do
  (cd "${run_dir}" && "${binary}" "${args[@]}" >/dev/null && mv gmon.out "gmon.${r}")
done
# Rename the function clones gprof would drop; k keeps the new names unique.
nm "${binary}" | awk '
  NF == 3 && ($2 == "t" || $2 == "T") {
    name = $3; base = name; sub(/\..*/, "", base); suffix = substr(name, length(base) + 1)
    if (base != "" && suffix != "" && suffix !~ /^(\.(clone|constprop)\.[0-9]+|\.[0-9]+)+$/ &&
        !seen[name]++) print name, base ".clone." ++k
  }' >"${run_dir}/clone_syms.txt"
objcopy --redefine-syms="${run_dir}/clone_syms.txt" "${binary}" "${run_dir}/${driver}.renamed"
profiled="${run_dir}/${driver}.renamed"
(cd "${run_dir}" && gprof -s "${profiled}" gmon.[0-9]* && gprof -b -p "${profiled}" gmon.sum >flat.txt)

python3 - "${run_dir}/flat.txt" "${driver} ${args[*]}" <<'EOF'
import re
import sys

LAYERS = [("sim", "simcore"), ("kern", "kernel"), ("p5", "power5"), ("mpi", "simmpi"),
          ("hpc", "hpcsched"), ("wl", "workloads")]
ORDER = [name for _, name in LAYERS] + ["other"]
number = re.compile(r"^[0-9.]+$")
self_s = dict.fromkeys(ORDER, 0.0)
for line in open(sys.argv[1]):
    fields = line.split()
    if len(fields) < 4 or not all(number.match(f) for f in fields[:3]):
        continue
    rest = fields[3:]
    while rest and number.match(rest[0]):  # calls, self/call, total/call
        rest = rest[1:]
    name = " ".join(rest)
    # The function's own namespace is the first hpcs::<ns>:: in its name.
    m = re.search(r"hpcs::(\w+)::", name)
    layer = dict(LAYERS).get(m.group(1), "other") if m else "other"
    self_s[layer] += float(fields[2])
total = sum(self_s.values())
print(f"gprof self time by layer, 10 runs of {sys.argv[2]} (total {total:.2f} s)")
print()
print("| layer | self s | share |")
print("|---|---:|---:|")
for layer in ORDER:
    share = 100.0 * self_s[layer] / total if total > 0 else 0.0
    print(f"| {layer} | {self_s[layer]:.2f} | {share:.1f}% |")
EOF
