#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload siesta [--seeds 1-10] [--trace 0] [--seconds 30]

For every metric it prints the median and the inter-quartile range as a share
of the median (statistics.quantiles(values, n=4)), next to the bound in
BENCHMARK.json, and flags spreads above a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    a = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in parse_seeds(a.seeds):
        cmd = [*bench["command"], "--workload", a.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", a.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                        if bounds.get(k) is not None or a.trace == "1")
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {line}")
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"\n{'metric':28} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(k)
        flag = " <-- over a third of the bound" if bound and share > bound / 3 else ""
        print(f"{k:28} {med:14.6g} {share:11.4f} {bound if bound else '-':>7}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
