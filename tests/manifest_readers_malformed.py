#!/usr/bin/env python3
"""Seeded mutations of a manifest must be rejected cleanly by its reader.

Usage:
    manifest_readers_malformed.py <scripts_dir> <manifest.json>

Makes 300 mutants of the manifest from a fixed seed (truncations, byte
flips and type swaps in turn), then runs scripts/manifest_diff.py (fixture
vs mutant) in-process on each mutant. The reader passes when:

  * it raises nothing but SystemExit, so no mutant gives a traceback;
  * every mutant that is not UTF-8 JSON, or whose top level is not an
    object with a runs array, exits 2 with one "error:" line;
  * every other mutant exits 0, 1 or 2;
  * the unmutated manifest passes.

Exit status: 0 pass, 1 the reader misbehaved.
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
import traceback

SEED = 16
COUNT = 300
SWAPS = ([], {}, "x", 7, 2.5, None, True, [[1]], {"runs": 3})


def import_script(scripts_dir, name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(scripts_dir, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call(main, args):
    """(exit status, stdout, stderr, traceback or None) of main(args)."""
    out, err = io.StringIO(), io.StringIO()
    status, trace = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(args)
        except SystemExit as e:
            # The interpreter's own mapping: None is 0, a message is 1.
            status = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception:  # noqa: BLE001 - any other exception is the failure mode
            trace = traceback.format_exc()
    return status, out.getvalue(), err.getvalue(), trace


def nodes(doc, path=()):
    """Every (path, value) in the document, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from nodes(v, path + (i,))


def mutate(data, doc, rng, kind):
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "flip":
        pos = rng.randrange(len(data))
        return data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1 :]
    path, value = rng.choice(list(nodes(doc)))
    swapped = rng.choice([s for s in SWAPS if type(s) is not type(value)])
    if not path:
        return json.dumps(swapped).encode()
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(swapped)
    return json.dumps(out).encode()


def unreadable(data):
    """True when the bytes are not a JSON object with a runs array."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError:
        return True
    return not isinstance(doc, dict) or not isinstance(doc.get("runs"), list)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    scripts_dir, manifest = argv[1], argv[2]
    manifest_diff = import_script(scripts_dir, "manifest_diff")
    with open(manifest, "rb") as f:
        base = f.read()
    base_doc = json.loads(base.decode("utf-8"))
    rng = random.Random(SEED)

    with tempfile.TemporaryDirectory() as tmp:
        mutant_path = os.path.join(tmp, "MANIFEST_mutant.json")

        def run(label, data):
            with open(mutant_path, "wb") as f:
                f.write(data)
            status, _, err, trace = call(manifest_diff.main, [manifest, mutant_path])
            if trace is not None:
                return f"manifest_diff raised:\n{trace}"
            if label == "unmutated":
                if status != 0:
                    return f"exit {status}, want 0"
            elif unreadable(data):
                error_lines = err.splitlines()
                if status != 2 or len(error_lines) != 1 or not error_lines[0].startswith("error:"):
                    return f"exit {status} with {err!r}, want exit 2 and one error line"
            elif status not in (0, 1, 2):
                return f"exit {status}"
            return None

        cases = [("unmutated", base)]
        kinds = ("truncate", "flip", "swap")
        for i in range(COUNT):
            kind = kinds[i % len(kinds)]
            cases.append((f"{kind} #{i}", mutate(base, base_doc, rng, kind)))
        failures = 0
        for label, data in cases:
            problem = run(label, data)
            if problem is not None:
                failures += 1
                print(f"FAIL {label}: {problem}")

    n_unreadable = sum(unreadable(data) for _, data in cases[1:])
    print(f"manifest reader: {COUNT} mutants (seed {SEED}), "
          f"{n_unreadable} unreadable, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
