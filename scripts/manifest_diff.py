#!/usr/bin/env python3
"""Diff two observability manifests, including the v2 windowed series.

Usage:
    manifest_diff.py [--tolerance X] [--max-report N] A.json B.json

Compares MANIFEST_*.json documents (hpcs-obs-manifest-v1 or -v2) run by run:

  * totals    — the run's sim_end_s and every metric's end-of-run value
                (counter count, gauge value, histogram count/sum/buckets)
  * windows   — the per-window time series (v2 only): period, sample count,
                and every per-window value

Rows and window columns are matched by name, so two manifests whose metric
lists differ still compare: a row or column present in only one of them is
named as a structural difference, and every common one is diffed by value.

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


def named(items):
    """Whether `items` is a list of strings, each once."""
    return (isinstance(items, list) and all(isinstance(n, str) for n in items)
            and len(set(items)) == len(items))


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
        if not named([m.get("name") for m in metrics]):
            return f"runs[{ri}]: metric names are not distinct strings"
        win = run.get("windows")
        if win is None:
            continue
        if not isinstance(win, dict):
            return f"runs[{ri}].windows is not an object"
        int_cols, real_cols = win.get("int_columns", []), win.get("real_columns", [])
        samples = win.get("samples", [])
        if not named(int_cols) or not named(real_cols):
            return f"runs[{ri}].windows columns are not arrays of distinct names"
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

    def one_sided(self, rname, what, names_a, names_b):
        """Report each of `names_a`/`names_b` missing from the other side."""
        for side, names, other in (("A", names_a, names_b), ("B", names_b, names_a)):
            for name in names:
                if name not in other:
                    self.structural += 1
                    self.report(f"{rname}: {what} {name} only in {side}")

    def diff_totals(self, run_a, run_b, rname):
        if not self.equal(run_a.get("sim_end_s"), run_b.get("sim_end_s"), True):
            self.total_diffs += 1
            self.report(f"{rname}: sim_end_s: {run_a.get('sim_end_s')!r} != "
                        f"{run_b.get('sim_end_s')!r}")
        ma = {m["name"]: m for m in run_a.get("metrics", [])}
        mb = {m["name"]: m for m in run_b.get("metrics", [])}
        self.one_sided(rname, "metric", ma, mb)
        for name in (n for n in ma if n in mb):
            va = {label: (v, real) for label, v, real in metric_values(ma[name])}
            vb = {label: (v, real) for label, v, real in metric_values(mb[name])}
            for label, (_, real) in {**va, **vb}.items():
                a, b = va.get(label, (None,))[0], vb.get(label, (None,))[0]
                if not self.equal(a, b, real):
                    self.total_diffs += 1
                    self.report(f"{rname}: total {label}: {a!r} != {b!r}")

    def diff_windows(self, run_a, run_b, rname):
        wa, wb = run_a.get("windows"), run_b.get("windows")
        if wa is None and wb is None:
            return
        if (wa is None) != (wb is None):
            self.structural += 1
            self.report(f"{rname}: windows present in only one manifest")
            return
        if wa.get("window_ns") != wb.get("window_ns"):
            self.structural += 1
            self.report(f"{rname}: windows.window_ns differs: "
                        f"{wa.get('window_ns')!r} != {wb.get('window_ns')!r}")
            return
        # (key, is_real, width in A, width in B, [(column, index in A, in B)])
        kinds = []
        for key, cols_key, real in (("ints", "int_columns", False),
                                    ("reals", "real_columns", True)):
            ca = {c: i for i, c in enumerate(wa.get(cols_key, []))}
            cb = {c: i for i, c in enumerate(wb.get(cols_key, []))}
            self.one_sided(rname, "window column", ca, cb)
            common = [(c, i, cb[c]) for c, i in ca.items() if c in cb]
            kinds.append((key, real, len(ca), len(cb), common))
        sa, sb = wa.get("samples", []), wb.get("samples", [])
        if len(sa) != len(sb):
            self.window_diffs += 1
            self.report(f"{rname}: {len(sa)} windows vs {len(sb)}")
            return
        for si, (a, b) in enumerate(zip(sa, sb)):
            if a.get("t_ns") != b.get("t_ns"):
                self.window_diffs += 1
                self.report(
                    f"{rname}: window {si} boundary {a.get('t_ns')} != {b.get('t_ns')}"
                )
                continue
            for key, real, width_a, width_b, common in kinds:
                values_a = a.get(key, [None] * width_a)
                values_b = b.get(key, [None] * width_b)
                for col, ia, ib in common:
                    va, vb = values_a[ia], values_b[ib]
                    if not self.equal(va, vb, real):
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
        print(f"manifest diff: structural mismatch ({d.structural} problem(s)); "
              f"{d.total_diffs} total(s) and {d.window_diffs} windowed value(s) differ")
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
