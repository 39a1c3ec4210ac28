#!/usr/bin/env python3
"""Smoke-diff bench JSON output against golden ranges.

Usage:
    scripts/check_bench_json.py <golden.json> <bench_output_dir>

The golden spec maps bench JSON file names to checks keyed by dotted paths
into the document ("sweep.rows_bit_identical", "modes.1.exec_s" — integer
segments index arrays). Each check is one of:

    {"equals": <value>}            exact match (bools, strings, counts)
    {"min": <x>}                   value >= x
    {"max": <y>}                   value <= y
    {"min": <x>, "max": <y>}      closed range

Simulated metrics (exec_s, utilisation, ctx_switches) are deterministic
functions of the config, so their ranges are tight: drifting outside one
means the scheduler's behaviour changed and the golden file must be
re-baselined deliberately. Wall-clock throughput numbers get one-sided lower
bounds only; the events/sec ones are perf floors (docs/performance.md).

Besides the golden checks, every MANIFEST_*.json present in the output dir is
validated against the observability manifest schema (hpcs-obs-manifest-v1 or
-v2): run layout, metric kinds, histogram bucket/edge arity, unique metric
names, and the fixed-layout contract (every run carries the identical metric
name/kind sequence). v2 manifests additionally carry a "windows" object per
run (the --obs-window time series), checked for column/sample arity,
strictly-increasing window timestamps, and one fixed column layout across
runs. Host sidecars (MANIFEST_*.host.json) are checked for their own schema
tag and engine-stat fields: per_worker_executed holds one count per worker
thread, summing to the batch's tasks, and is empty for the serial path.

Exit status: 0 all checks pass, 1 any failure (missing or unreadable file,
missing path, out-of-range value, malformed manifest), 2 usage error.
"""

import glob
import json
import os
import sys

MANIFEST_SCHEMAS = ("hpcs-obs-manifest-v1", "hpcs-obs-manifest-v2")
HOST_SCHEMA = "hpcs-obs-host-v2"
METRIC_KINDS = ("counter", "gauge", "histogram")

# Event-queue counter family: a manifest that carries any sim.eq_* metric
# must carry the whole set (obs/recorder.cpp registers them together — a
# partial set means the registration order drifted or a counter was dropped).
EQ_COUNTERS = (
    "sim.eq_scheduled",
    "sim.eq_dispatched",
    "sim.eq_resched_inplace",
    "sim.eq_resched_pending",
)


def load_json(path):
    """(document, None) or (None, one-line reason it cannot be loaded)."""
    try:
        with open(path, "rb") as f:
            return json.loads(f.read().decode("utf-8")), None
    except (OSError, ValueError) as e:
        return None, str(e)


def validate_windows(win, where, window_layout):
    """Validate one run's v2 "windows" object; returns (problems, layout)."""
    problems = []
    if not isinstance(win, dict):
        return [f"{where}.windows must be an object"], window_layout
    window_ns = win.get("window_ns")
    if not isinstance(window_ns, int) or window_ns < 0:
        problems.append(f"{where}.windows.window_ns must be a non-negative integer")
    int_cols = win.get("int_columns")
    real_cols = win.get("real_columns")
    samples = win.get("samples")
    for key, val in (("int_columns", int_cols), ("real_columns", real_cols)):
        if not isinstance(val, list) or any(not isinstance(c, str) or not c for c in val):
            problems.append(f"{where}.windows.{key} must be an array of names")
            return problems, window_layout
    if not isinstance(samples, list):
        problems.append(f"{where}.windows.samples must be an array")
        return problems, window_layout

    prev_t = 0
    for si, s in enumerate(samples):
        swhere = f"{where}.windows.samples.{si}"
        if not isinstance(s, dict):
            problems.append(f"{swhere} must be an object")
            continue
        t_ns = s.get("t_ns")
        if not isinstance(t_ns, int) or t_ns <= prev_t:
            problems.append(
                f"{swhere}.t_ns = {t_ns!r} not strictly after previous ({prev_t}) — "
                "window timestamps must be positive and monotonic"
            )
        else:
            prev_t = t_ns
        ints, reals = s.get("ints"), s.get("reals")
        if not isinstance(ints, list) or len(ints) != len(int_cols):
            problems.append(
                f"{swhere}.ints has {len(ints) if isinstance(ints, list) else '??'} "
                f"values for {len(int_cols)} int_columns"
            )
        elif any(not isinstance(v, int) for v in ints):
            problems.append(f"{swhere}.ints must be integers")
        if not isinstance(reals, list) or len(reals) != len(real_cols):
            problems.append(
                f"{swhere}.reals has {len(reals) if isinstance(reals, list) else '??'} "
                f"values for {len(real_cols)} real_columns"
            )
        elif any(not isinstance(v, (int, float)) for v in reals):
            problems.append(f"{swhere}.reals must be numbers")

    this_layout = (window_ns, tuple(int_cols), tuple(real_cols))
    if window_layout is None:
        window_layout = this_layout
    elif this_layout != window_layout:
        problems.append(
            f"{where}.windows: column layout or period differs from runs.0 — "
            "the windowed series shares the manifest's fixed-layout contract"
        )
    return problems, window_layout


def validate_manifest(doc, fname):
    """Return a list of problem strings for one manifest document."""
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    problems = []
    schema = doc.get("schema")
    if schema not in MANIFEST_SCHEMAS:
        problems.append(f"schema is {schema!r}, want one of {MANIFEST_SCHEMAS}")
    v2 = schema == "hpcs-obs-manifest-v2"
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append("bench must be a non-empty string")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        problems.append("runs must be a non-empty array")
        return problems

    layout = None  # (name, kind) sequence every run must share
    window_layout = None  # (window_ns, int_columns, real_columns) ditto
    for ri, run in enumerate(runs):
        where = f"runs.{ri}"
        if not isinstance(run, dict):
            problems.append(f"{where} must be an object")
            continue
        if not isinstance(run.get("name"), str) or not run.get("name"):
            problems.append(f"{where}.name must be a non-empty string")
        if not isinstance(run.get("sim_end_s"), (int, float)):
            problems.append(f"{where}.sim_end_s must be a number")
        metrics = run.get("metrics")
        if not isinstance(metrics, list) or not metrics:
            problems.append(f"{where}.metrics must be a non-empty array")
            continue

        seen = set()
        this_layout = []
        for mi, m in enumerate(metrics):
            mwhere = f"{where}.metrics.{mi}"
            if not isinstance(m, dict):
                problems.append(f"{mwhere} must be an object")
                continue
            name, kind = m.get("name"), m.get("kind")
            if not isinstance(name, str) or not name:
                problems.append(f"{mwhere}.name must be a non-empty string")
                continue
            if name in seen:
                problems.append(f"{mwhere}: duplicate metric name {name!r}")
            seen.add(name)
            this_layout.append((name, kind))
            if kind not in METRIC_KINDS:
                problems.append(f"{mwhere} ({name}): kind {kind!r} not in {METRIC_KINDS}")
                continue
            if kind == "counter" and not isinstance(m.get("count"), int):
                problems.append(f"{mwhere} ({name}): counter needs integer count")
            if kind == "gauge" and not isinstance(m.get("value"), (int, float)):
                problems.append(f"{mwhere} ({name}): gauge needs numeric value")
            if kind == "histogram":
                edges, buckets = m.get("edges"), m.get("buckets")
                if not isinstance(m.get("count"), int) or not isinstance(
                    m.get("sum"), (int, float)
                ):
                    problems.append(f"{mwhere} ({name}): histogram needs count and sum")
                if not isinstance(edges, list) or not isinstance(buckets, list):
                    problems.append(f"{mwhere} ({name}): histogram needs edges and buckets")
                    continue
                if len(buckets) != len(edges) + 1:
                    problems.append(
                        f"{mwhere} ({name}): {len(buckets)} buckets for "
                        f"{len(edges)} edges (want edges+1)"
                    )
                if any(not isinstance(e, (int, float)) for e in edges):
                    problems.append(f"{mwhere} ({name}): edges must be numbers")
                elif any(not a < b for a, b in zip(edges, edges[1:])):
                    problems.append(f"{mwhere} ({name}): edges not strictly ascending")
                if any(not isinstance(b, int) or b < 0 for b in buckets):
                    problems.append(f"{mwhere} ({name}): buckets must be counts >= 0")

        if layout is None:
            layout = this_layout
        elif this_layout != layout:
            problems.append(
                f"{where}: metric layout differs from runs.0 — the manifest "
                "contract is one fixed registration order for every run"
            )

        names = {n for n, _ in this_layout}
        if any(n.startswith("sim.eq_") for n in names):
            missing = [n for n in EQ_COUNTERS if n not in names]
            if missing:
                problems.append(
                    f"{where}: event-queue counter set incomplete, missing {missing}"
                )

        if v2:
            wproblems, window_layout = validate_windows(
                run.get("windows"), where, window_layout
            )
            problems.extend(wproblems)
        elif "windows" in run:
            problems.append(f"{where}: a v1 manifest must not carry a windows object")
    return problems


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def validate_host_sidecar(doc, fname):
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    problems = []
    if doc.get("schema") != HOST_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {HOST_SCHEMA!r}")
    engine = doc.get("engine")
    if not isinstance(engine, dict):
        problems.append("engine must be an object")
        return problems
    for key in ("tasks", "workers"):
        if not is_int(engine.get(key)):
            problems.append(f"engine.{key} must be an integer")
    if not isinstance(engine.get("wall_ms"), (int, float)):
        problems.append("engine.wall_ms must be a number")
    per_worker = engine.get("per_worker_executed")
    if not (isinstance(per_worker, list) and all(is_int(n) for n in per_worker)):
        problems.append("engine.per_worker_executed must be a list of integers")
    elif is_int(engine.get("tasks")) and is_int(engine.get("workers")):
        workers, tasks = engine["workers"], engine["tasks"]
        if workers == 0 and per_worker:
            problems.append("engine.per_worker_executed must be empty when workers is 0")
        elif workers > 0 and len(per_worker) != workers:
            problems.append(
                f"engine.per_worker_executed has {len(per_worker)} entries, "
                f"want one per worker ({workers})"
            )
        elif workers > 0 and sum(per_worker) != tasks:
            problems.append(
                f"engine.per_worker_executed sums to {sum(per_worker)}, want tasks ({tasks})"
            )
    return problems


def check_manifests(bench_dir):
    failures = 0
    for path in sorted(glob.glob(f"{bench_dir}/MANIFEST_*.json")):
        fname = os.path.basename(path)
        doc, error = load_json(path)
        if error is not None:
            print(f"FAIL {fname}: cannot load ({error})")
            failures += 1
            continue
        if fname.endswith(".host.json"):
            validate, kind = validate_host_sidecar, "host sidecar"
        else:
            validate, kind = validate_manifest, "manifest"
        problems = validate(doc, fname)
        for p in problems:
            print(f"FAIL {fname}: {p}")
        failures += len(problems)
        if not problems:
            print(f"  ok  {fname}: valid {kind}")
    return failures


def lookup(doc, dotted):
    node = doc
    for seg in dotted.split("."):
        if isinstance(node, list):
            node = node[int(seg)]
        elif isinstance(node, dict):
            node = node[seg]
        else:
            raise KeyError(seg)
    return node


def run_checks(spec_path, bench_dir):
    spec, error = load_json(spec_path)
    if error is None and not (
        isinstance(spec, dict)
        and all(
            isinstance(checks, dict) and all(isinstance(r, dict) for r in checks.values())
            for checks in spec.values()
        )
    ):
        error = "want an object of {dotted.path: {equals|min|max: value}} per file"
    if error is not None:
        print(f"FAIL {spec_path}: not a golden spec ({error})")
        return 1

    failures = 0
    for fname, checks in spec.items():
        doc, error = load_json(f"{bench_dir}/{fname}")
        if error is not None:
            print(f"FAIL {fname}: cannot load ({error})")
            failures += len(checks)
            continue

        for dotted, rule in checks.items():
            try:
                value = lookup(doc, dotted)
            except (KeyError, IndexError, ValueError):
                print(f"FAIL {fname}: {dotted} missing")
                failures += 1
                continue

            ok = True
            if "equals" in rule:
                ok = value == rule["equals"]
            try:
                if ok and "min" in rule:
                    ok = value >= rule["min"]
                if ok and "max" in rule:
                    ok = value <= rule["max"]
            except TypeError:
                ok = False

            if ok:
                print(f"  ok  {fname}: {dotted} = {value}")
            else:
                print(f"FAIL {fname}: {dotted} = {value}, expected {rule}")
                failures += 1

    return failures


def main(argv):
    if len(argv) != 3:
        print("usage: check_bench_json.py <golden.json> <bench_output_dir>", file=sys.stderr)
        return 2
    failures = run_checks(argv[1], argv[2])
    failures += check_manifests(argv[2])
    if failures:
        print(f"bench smoke-diff: {failures} check(s) FAILED")
        return 1
    print("bench smoke-diff: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
