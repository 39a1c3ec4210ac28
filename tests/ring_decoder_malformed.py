#!/usr/bin/env python3
"""Seeded mutations of a ring dump must be rejected cleanly by its decoder.

Usage:
    ring_decoder_malformed.py <scripts_dir>

Builds a valid ring dump with struct.pack from the layout documented in
src/obs/ring_dump.h (independently of the C++ encoder) and checks that
scripts/obs_ring_decode.py decodes it to exactly the records packed. Then
makes 300 mutants from a fixed seed (truncations, byte flips and appended
bytes in turn) and runs each through parse() and, in-process, through the
three CLI modes (summary, --entries, --chrome OUT). The decoder passes when:

  * parse() returns or raises ValueError, nothing else;
  * no CLI mode raises anything but SystemExit, so no mutant gives a
    traceback, and every mode exits 0 or 1;
  * a mutant parse() rejects exits 1 with one "error:" line on stderr,
    and a mutant it accepts exits 0;
  * a missing dump, a directory given as the dump, and --chrome into a
    missing directory each exit 1 with one "error:" line (run as real
    subprocesses, so the interpreter's own traceback would show).

Exit status: 0 pass, 1 the decoder misbehaved.
"""

import contextlib
import importlib.util
import io
import os
import random
import struct
import subprocess
import sys
import tempfile
import traceback

SEED = 17
COUNT = 300

# (run name, [(pushed, dropped, [(t_ns, tp, cpu, a0, a1), ...]) per cpu])
RUNS = [
    ("Baseline", [(3, 0, [(1000, 0, 0, 7, -1), (2500, 1, 0, 8, 0), (4000, 4, 0, 7, 6)]),
                  (1, 0, [(1500, 2, 1, 8, 0)])]),
    ("Uniform", [(9, 5, [(9_000_000_000, 5, 0, 7, 3), (9_500_000_000, 7, 0, 7, 5)]),
                 (0, 0, [])]),
]


def pack_dump(runs):
    """The documented layout: magic, u32 version, u32 runs, then per run a
    u32-length name, u32 cpus and per cpu u64 pushed/dropped/retained plus
    retained 32-byte entries {i64 t_ns, u32 tp, i32 cpu, i64 a0, i64 a1}."""
    out = b"HPCSRING" + struct.pack("<II", 1, len(runs))
    for name, cpus in runs:
        raw = name.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw + struct.pack("<I", len(cpus))
        for pushed, dropped, entries in cpus:
            out += struct.pack("<QQQ", pushed, dropped, len(entries))
            for entry in entries:
                out += struct.pack("<qIiqq", *entry)
    return out


def import_script(scripts_dir, name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(scripts_dir, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call(main, args):
    """(exit status, stderr, traceback or None) of main(args)."""
    out, err = io.StringIO(), io.StringIO()
    status, trace = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(args)
        except SystemExit as e:
            status = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception:  # noqa: BLE001 - any other exception is the failure mode
            trace = traceback.format_exc()
    return status, err.getvalue(), trace


def one_error_line(stderr):
    lines = stderr.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def mutate(data, rng, kind):
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "flip":
        pos = rng.randrange(len(data))
        return data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1 :]
    return data + bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    scripts_dir = argv[1]
    decoder = import_script(scripts_dir, "obs_ring_decode")
    base = pack_dump(RUNS)
    failures = []

    decoded = decoder.parse(base)
    expected = [(name, [(p, d, list(e)) for p, d, e in cpus]) for name, cpus in RUNS]
    if decoded != expected:
        failures.append(f"valid dump decoded to {decoded!r}")

    rng = random.Random(SEED)
    kinds = ("truncate", "flip", "append")
    rejected = 0
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "mutant.bin")
        chrome = os.path.join(tmp, "mutant.json")
        cases = [("unmutated", base)]
        for i in range(COUNT):
            kind = kinds[i % len(kinds)]
            cases.append((f"{kind} #{i}", mutate(base, rng, kind)))
        for label, data in cases:
            try:
                decoder.parse(data)
                valid = True
            except ValueError:
                valid = False
            except Exception:  # noqa: BLE001
                failures.append(f"{label}: parse raised:\n{traceback.format_exc()}")
                continue
            rejected += not valid
            with open(dump, "wb") as f:
                f.write(data)
            for mode in ([dump], [dump, "--entries"], [dump, "--chrome", chrome]):
                status, stderr, trace = call(decoder.main, mode)
                what = f"{label} {' '.join(mode[1:]) or 'summary'}"
                if trace is not None:
                    failures.append(f"{what}: raised:\n{trace}")
                elif valid and status != 0:
                    failures.append(f"{what}: exit {status} on a dump parse() accepts")
                elif not valid and (status != 1 or not one_error_line(stderr)):
                    failures.append(f"{what}: exit {status} with {stderr!r}, "
                                    "want exit 1 and one error line")

        # The unreadable-path cases, through a real interpreter.
        with open(dump, "wb") as f:
            f.write(base)
        script = os.path.join(scripts_dir, "obs_ring_decode.py")
        for what, args in (("missing dump", [os.path.join(tmp, "missing.bin")]),
                           ("directory as dump", [tmp]),
                           ("--chrome into a missing directory",
                            [dump, "--chrome", os.path.join(tmp, "no_such_dir", "out.json")])):
            proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True)
            if proc.returncode != 1 or not one_error_line(proc.stderr):
                failures.append(f"{what}: exit {proc.returncode} with {proc.stderr!r}, "
                                "want exit 1 and one error line")

    for f in failures:
        print(f"FAIL {f}")
    print(f"ring decoder: {COUNT} mutants (seed {SEED}), {rejected} rejected, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
