#!/usr/bin/env python3
"""Human-readable diff of two hpcslint SARIF reports.

Usage: sarif_diff.py CURRENT.sarif.json BASELINE.sarif.json [--markdown]

Compares by partialFingerprints (hpcslint/v2, falling back to v1 for old
baselines) and prints the findings that are NEW in CURRENT and the ones that
were FIXED relative to BASELINE. The CI hpcslint-sarif job pipes the
--markdown form into $GITHUB_STEP_SUMMARY when the baseline gate fails, so
the reviewer sees "what changed" instead of raw SARIF.

Always exits 0 — the gate itself is hpcslint's --baseline exit code; this
script only explains it. A missing/empty baseline file is treated as an
empty fingerprint set (everything current is "new").
"""

import json
import sys

FP_KEYS = ("hpcslint/v2", "hpcslint/v1")


def load_results(path):
    """fingerprint -> (ruleId, uri, line, message) for every result."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    out = {}
    for run in doc.get("runs", []):
        for res in run.get("results", []):
            fps = res.get("partialFingerprints", {})
            fp = next((fps[k] for k in FP_KEYS if k in fps), None)
            if fp is None:
                continue
            uri, line = "?", 0
            locs = res.get("locations", [])
            if locs:
                phys = locs[0].get("physicalLocation", {})
                uri = phys.get("artifactLocation", {}).get("uri", "?")
                line = phys.get("region", {}).get("startLine", 0)
            out[fp] = (
                res.get("ruleId", "?"),
                uri,
                line,
                res.get("message", {}).get("text", ""),
            )
    return out


def group_by_rule(rows):
    """rule id -> [(uri, line, msg)], rules sorted, rows sorted within each."""
    groups = {}
    for rule, uri, line, msg in rows:
        groups.setdefault(rule, []).append((uri, line, msg))
    return {rule: sorted(groups[rule]) for rule in sorted(groups)}


def emit(title, rows, markdown):
    # Group by rule id so a new rule family (det-taint, shared-race, ...)
    # reads as one block, not findings interleaved by path.
    groups = group_by_rule(rows)
    if markdown:
        print(f"### {title} ({len(rows)})")
        print()
        if not rows:
            print("_none_")
        for rule, items in groups.items():
            print(f"**`{rule}`** ({len(items)})")
            print()
            print("| location | message |")
            print("|---|---|")
            for uri, line, msg in items:
                msg = msg.replace("|", "\\|")
                print(f"| `{uri}:{line}` | {msg} |")
            print()
        print()
    else:
        print(f"{title}: {len(rows)}")
        for rule, items in groups.items():
            print(f"  [{rule}] ({len(items)})")
            for uri, line, msg in items:
                print(f"    {uri}:{line}: {msg}")


def main(argv):
    markdown = "--markdown" in argv
    paths = [a for a in argv[1:] if not a.startswith("--")]
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    current = load_results(paths[0])
    baseline = load_results(paths[1])
    new = sorted(v for fp, v in current.items() if fp not in baseline)
    fixed = sorted(v for fp, v in baseline.items() if fp not in current)
    if markdown:
        print("## hpcslint baseline diff")
        print()
    emit("New findings (not in baseline)", new, markdown)
    emit("Fixed findings (baselined, no longer present)", fixed, markdown)
    if not markdown:
        print(
            f"total: {len(current)} current, {len(baseline)} baselined, "
            f"{len(new)} new, {len(fixed)} fixed"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
