#!/usr/bin/env python3
"""Build and run the paper-workload benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <siesta|metbenchvar|paper_sweep>
                             --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (which compiles
the simulator from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later calls rebuild
incrementally. Build output goes to stderr. The benchmark binary's standard
output is passed through unchanged: its last line is the JSON result. Any
build or run failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    """Configure (once) and build; return the benchmark binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "hpcs_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only the benchmark.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode
        if rc != 0:
            raise RuntimeError(f"build step failed ({rc}): {' '.join(cmd)}")
    return out / "hpcs_perfbench"


def main(argv: list) -> int:
    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    args = [str(binary), *argv]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
