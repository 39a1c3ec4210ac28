#!/usr/bin/env python3
"""Run each table driver with windowed obs on and diff its manifest against
the checked-in golden.

    manifest_goldens.py BENCH_DIR SCRIPTS_DIR WORK_DIR

Each of table3..6 runs with --jobs 4 --obs --obs-window 10000000000 in
WORK_DIR; scripts/manifest_diff.py must find MANIFEST_<driver>.json
equivalent to its golden. Exit 0 when all four match, 1 otherwise.
"""

import os
import subprocess
import sys

GOLDENS = [
    ("table3_metbench", "manifest_golden_v2.json"),
    ("table4_metbenchvar", "manifest_golden_table4_v2.json"),
    ("table5_btmz", "manifest_golden_table5_v2.json"),
    ("table6_siesta", "manifest_golden_table6_v2.json"),
]


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench_dir, scripts_dir, work_dir = argv[1:]
    os.makedirs(work_dir, exist_ok=True)
    failed = []
    for driver, golden in GOLDENS:
        manifest = os.path.join(work_dir, "MANIFEST_%s.json" % driver)
        if os.path.exists(manifest):
            os.remove(manifest)
        run = subprocess.run(
            [os.path.join(bench_dir, driver), "--jobs", "4", "--obs",
             "--obs-window", "10000000000"],
            cwd=work_dir, stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print("%s exited %d" % (driver, run.returncode))
            failed.append(driver)
            continue
        diff = subprocess.run(
            [sys.executable, os.path.join(scripts_dir, "manifest_diff.py"),
             os.path.join(scripts_dir, golden), manifest])
        if diff.returncode != 0:
            failed.append(driver)
    if failed:
        print("manifest differs from its golden: " + ", ".join(failed))
        return 1
    print("all %d manifests match their goldens" % len(GOLDENS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
