#!/usr/bin/env python3
"""Diff two observability manifests, including the v2 windowed series.

Usage:
    manifest_diff.py [--tolerance X] [--max-report N] A.json B.json

Compares MANIFEST_*.json documents (hpcs-obs-manifest-v1 or -v2) run by run:

  * totals    — every metric's end-of-run value (counter count, gauge value,
                histogram count/sum/buckets)
  * windows   — the per-window time series (v2 only): period, column layout,
                sample count, and every per-window value

The reason this tool exists: two runs can report IDENTICAL totals while
behaving differently mid-run — a burst of migrations early vs late, a stall
that shifts work between windows, a perturbation that cancels out by the end.
Totals-only diffing (and the byte-cmp CI gates) would call such runs equal
if the drift cancels; the windowed series is where it shows. When totals
match but windows differ, the report says so explicitly — that is the
signature of a mid-run anomaly.

--tolerance X treats |a - b| <= X as equal for real-valued entries (gauge
values, histogram sums, real window columns). Integer entries (counts,
int window columns) always compare exactly.

Exit status: 0 manifests equivalent, 1 any difference, 2 usage/load error.
"""

import argparse
import json
import sys


def load_error(message):
    """Report a load error on one line and exit 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def shape_error(doc):
    """Why `doc` lacks the structure the differ walks, or None."""
    if not isinstance(doc, dict):
        return "top level is not an object"
    if not isinstance(doc.get("runs"), list):
        return "no runs array"
    for ri, run in enumerate(doc["runs"]):
        if not isinstance(run, dict):
            return f"runs[{ri}] is not an object"
        metrics = run.get("metrics", [])
        if not isinstance(metrics, list) or not all(isinstance(m, dict) for m in metrics):
            return f"runs[{ri}].metrics is not an array of objects"
        if not all(isinstance(m.get("buckets", []), list) for m in metrics):
            return f"runs[{ri}]: histogram buckets are not an array"
        win = run.get("windows")
        if win is None:
            continue
        if not isinstance(win, dict):
            return f"runs[{ri}].windows is not an object"
        int_cols, real_cols = win.get("int_columns", []), win.get("real_columns", [])
        samples = win.get("samples", [])
        if not isinstance(int_cols, list) or not isinstance(real_cols, list):
            return f"runs[{ri}].windows columns are not arrays"
        if not isinstance(samples, list) or not all(isinstance(s, dict) for s in samples):
            return f"runs[{ri}].windows.samples is not an array of objects"
        for si, s in enumerate(samples):
            for key, cols in (("ints", int_cols), ("reals", real_cols)):
                values = s.get(key, [None] * len(cols))
                if not isinstance(values, list) or len(values) < len(cols):
                    return f"runs[{ri}].windows.samples[{si}].{key} does not cover its columns"
    return None


def load(path):
    try:
        with open(path, "rb") as f:
            doc = json.loads(f.read().decode("utf-8"))
    except (OSError, ValueError) as e:
        load_error(f"cannot load {path}: {e}")
    problem = shape_error(doc)
    if problem:
        load_error(f"{path}: not a manifest ({problem})")
    return doc


def metric_values(m):
    """(comparable entries) for one metric: list of (label, value, is_real)."""
    kind = m.get("kind")
    name = m.get("name", "?")
    if kind == "counter":
        return [(f"{name}.count", m.get("count"), False)]
    if kind == "gauge":
        return [(f"{name}.value", m.get("value"), True)]
    if kind == "histogram":
        out = [
            (f"{name}.count", m.get("count"), False),
            (f"{name}.sum", m.get("sum"), True),
        ]
        for i, b in enumerate(m.get("buckets", [])):
            out.append((f"{name}.buckets[{i}]", b, False))
        return out
    return [(f"{name}.?", None, False)]


class Differ:
    def __init__(self, tolerance, max_report):
        self.tolerance = tolerance
        self.max_report = max_report
        self.total_diffs = 0
        self.window_diffs = 0
        self.structural = 0
        self.reported = 0

    def report(self, line):
        self.reported += 1
        if self.reported <= self.max_report:
            print(f"  {line}")
        elif self.reported == self.max_report + 1:
            print(f"  ... (further differences suppressed, --max-report {self.max_report})")

    def equal(self, a, b, is_real):
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if is_real and self.tolerance > 0:
                return abs(a - b) <= self.tolerance
            return a == b
        return a == b

    def diff_totals(self, run_a, run_b, rname):
        ma, mb = run_a.get("metrics", []), run_b.get("metrics", [])
        if [m.get("name") for m in ma] != [m.get("name") for m in mb]:
            self.structural += 1
            self.report(f"{rname}: metric layouts differ — not comparable totals")
            return
        for a, b in zip(ma, mb):
            for (la, va, real), (_lb, vb, _r) in zip(metric_values(a), metric_values(b)):
                if not self.equal(va, vb, real):
                    self.total_diffs += 1
                    self.report(f"{rname}: total {la}: {va!r} != {vb!r}")

    def diff_windows(self, run_a, run_b, rname):
        wa, wb = run_a.get("windows"), run_b.get("windows")
        if wa is None and wb is None:
            return
        if (wa is None) != (wb is None):
            self.structural += 1
            self.report(f"{rname}: windows present in only one manifest")
            return
        for key in ("window_ns", "int_columns", "real_columns"):
            if wa.get(key) != wb.get(key):
                self.structural += 1
                self.report(f"{rname}: windows.{key} differs: "
                            f"{wa.get(key)!r} != {wb.get(key)!r}")
                return
        sa, sb = wa.get("samples", []), wb.get("samples", [])
        if len(sa) != len(sb):
            self.window_diffs += 1
            self.report(f"{rname}: {len(sa)} windows vs {len(sb)}")
            return
        int_cols = wa.get("int_columns", [])
        real_cols = wa.get("real_columns", [])
        for si, (a, b) in enumerate(zip(sa, sb)):
            if a.get("t_ns") != b.get("t_ns"):
                self.window_diffs += 1
                self.report(
                    f"{rname}: window {si} boundary {a.get('t_ns')} != {b.get('t_ns')}"
                )
                continue
            for ci, col in enumerate(int_cols):
                va = a.get("ints", [None] * len(int_cols))[ci]
                vb = b.get("ints", [None] * len(int_cols))[ci]
                if not self.equal(va, vb, False):
                    self.window_diffs += 1
                    self.report(
                        f"{rname}: window {si} (t_ns={a.get('t_ns')}) "
                        f"{col}: {va!r} != {vb!r}"
                    )
            for ci, col in enumerate(real_cols):
                va = a.get("reals", [None] * len(real_cols))[ci]
                vb = b.get("reals", [None] * len(real_cols))[ci]
                if not self.equal(va, vb, True):
                    self.window_diffs += 1
                    self.report(
                        f"{rname}: window {si} (t_ns={a.get('t_ns')}) "
                        f"{col}: {va!r} != {vb!r}"
                    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", metavar="A.json")
    ap.add_argument("b", metavar="B.json")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="treat |a-b| <= X as equal for real-valued entries (default: exact)",
    )
    ap.add_argument(
        "--max-report",
        type=int,
        default=40,
        help="cap on printed difference lines (default 40); the exit status "
        "and summary always reflect every difference",
    )
    args = ap.parse_args(argv)

    da, db = load(args.a), load(args.b)
    d = Differ(args.tolerance, args.max_report)

    if da.get("schema") != db.get("schema"):
        print(f"note: schemas differ ({da.get('schema')} vs {db.get('schema')}); "
              "comparing the common structure")
    runs_a, runs_b = da["runs"], db["runs"]
    names_a = [r.get("name") for r in runs_a]
    names_b = [r.get("name") for r in runs_b]
    if names_a != names_b:
        print(f"FAIL: run lists differ: {names_a} vs {names_b}")
        return 1

    for ra, rb in zip(runs_a, runs_b):
        rname = ra.get("name", "?")
        d.diff_totals(ra, rb, rname)
        d.diff_windows(ra, rb, rname)

    if d.structural:
        print(f"manifest diff: structural mismatch ({d.structural} problem(s))")
        return 1
    if d.total_diffs == 0 and d.window_diffs > 0:
        print(
            f"manifest diff: MID-RUN ANOMALY — totals identical but "
            f"{d.window_diffs} windowed value(s) differ; the runs ended in the "
            "same place via different trajectories"
        )
        return 1
    if d.total_diffs or d.window_diffs:
        print(
            f"manifest diff: {d.total_diffs} total(s) and "
            f"{d.window_diffs} windowed value(s) differ"
        )
        return 1
    print("manifest diff: manifests equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
