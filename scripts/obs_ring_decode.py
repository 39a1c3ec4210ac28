#!/usr/bin/env python3
"""Decode a binary tracepoint ring dump written by --obs-ring-dump.

Format (little-endian, see src/obs/ring_dump.h):

    magic   8 bytes  "HPCSRING"
    u32     format version (1)
    u32     run count
    per run:
      u32     run-name length, then that many bytes
      u32     cpu count
      per cpu:
        u64     pushed, u64 dropped, u64 retained
        retained x 32-byte entries { i64 t_ns, u32 tp, i32 cpu, i64 a0, i64 a1 }

Usage:
    obs_ring_decode.py DUMP                 # per-run/per-cpu summary
    obs_ring_decode.py DUMP --entries       # every retained record, oldest first
    obs_ring_decode.py DUMP --chrome out.json
                                            # convert to Chrome trace-event JSON
                                            # (load in chrome://tracing / Perfetto)

The --chrome conversion emits one instant event ("ph":"i") per retained
record — name = tracepoint name, pid = run index, tid = recording cpu,
ts = t_ns/1000 microseconds, args = {a0, a1} — plus process/thread naming
metadata, so the ring's view lines up with a --obs-trace capture of the
same run when both are loaded side by side.

Exit status: 0 ok; 1 when the dump cannot be read or is malformed, or the
--chrome output cannot be written, reported on one "error:" line.
"""

import argparse
import json
import struct
import sys

MAGIC = b"HPCSRING"
VERSION = 1

# Mirrors obs::TpId <-> obs::tp_name() (append-only catalogue,
# src/obs/tracepoint.h / tracepoint.cpp). Keep byte-for-byte in sync.
TP_NAMES = [
    "sched_switch",
    "sched_wake",
    "sched_migrate",
    "sched_balance_pull",
    "hw_prio",
    "hpc_iteration",
    "hpc_imbalance",
    "hpc_prio_change",
    "hpc_history_reset",
]


class Reader:
    def __init__(self, blob):
        self.blob = blob
        self.off = 0

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.off + size > len(self.blob):
            raise ValueError(f"truncated dump at offset {self.off}")
        vals = struct.unpack_from(fmt, self.blob, self.off)
        self.off += size
        return vals if len(vals) > 1 else vals[0]

    def take_bytes(self, n):
        if self.off + n > len(self.blob):
            raise ValueError(f"truncated dump at offset {self.off}")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out


def tp_name(tp):
    return TP_NAMES[tp] if tp < len(TP_NAMES) else f"tp{tp}"


def parse(blob):
    """Decode the dump into [(run_name, [(pushed, dropped, entries)])]."""
    r = Reader(blob)
    if r.take_bytes(8) != MAGIC:
        raise ValueError("not a ring dump (bad magic)")
    version = r.take("<I")
    if version != VERSION:
        raise ValueError(f"unsupported dump version {version} (expected {VERSION})")
    runs = []
    for _ in range(r.take("<I")):
        name_len = r.take("<I")
        name = r.take_bytes(name_len).decode("utf-8", "replace")
        cpus = []
        for _ in range(r.take("<I")):
            pushed, dropped, retained = r.take("<QQQ")
            entries = [r.take("<qIiqq") for _ in range(retained)]
            cpus.append((pushed, dropped, entries))
        runs.append((name, cpus))
    if r.off != len(blob):
        raise ValueError(f"{len(blob) - r.off} trailing bytes after last run")
    return runs


def print_runs(runs, show_entries):
    for name, cpus in runs:
        print(f"run {name}: {len(cpus)} cpus")
        for cpu, (pushed, dropped, entries) in enumerate(cpus):
            print(f"  cpu {cpu}: pushed={pushed} dropped={dropped} retained={len(entries)}")
            if show_entries:
                for t_ns, tp, ecpu, a0, a1 in entries:
                    print(
                        f"    {t_ns / 1e9:14.9f}s cpu{ecpu} {tp_name(tp):18s} a0={a0} a1={a1}"
                    )


def chrome_events(runs):
    """Chrome trace-event objects for the retained records, oldest first."""
    events = []
    for ri, (name, cpus) in enumerate(runs):
        pid = ri + 1
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        )
        for cpu in range(len(cpus)):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": cpu,
                    "args": {"name": f"ring cpu {cpu}"},
                }
            )
        for cpu, (_pushed, _dropped, entries) in enumerate(cpus):
            for t_ns, tp, ecpu, a0, a1 in entries:
                events.append(
                    {
                        "name": tp_name(tp),
                        "ph": "i",
                        "s": "t",
                        "pid": pid,
                        "tid": cpu,
                        "ts": t_ns / 1000.0,
                        "args": {"cpu": ecpu, "a0": a0, "a1": a1},
                    }
                )
    return events


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump", help="path written by --obs-ring-dump")
    ap.add_argument("--entries", action="store_true", help="print every retained record")
    ap.add_argument(
        "--chrome",
        metavar="OUT",
        help="write a Chrome trace-event JSON conversion to OUT instead of printing",
    )
    args = ap.parse_args(argv)
    try:
        with open(args.dump, "rb") as f:
            blob = f.read()
    except OSError as e:
        return fail(f"cannot read {args.dump}: {e.strerror or e}")
    try:
        runs = parse(blob)
    except ValueError as e:
        return fail(e)
    if args.chrome:
        doc = {"traceEvents": chrome_events(runs), "displayTimeUnit": "ms"}
        try:
            with open(args.chrome, "w", encoding="utf-8") as f:
                json.dump(doc, f, indent=None, separators=(",", ":"))
                f.write("\n")
        except OSError as e:
            return fail(f"cannot write {args.chrome}: {e.strerror or e}")
    try:
        if args.chrome:
            total = sum(len(e) for _, cpus in runs for _, _, e in cpus)
            print(f"wrote {args.chrome}: {total} events from {len(runs)} run(s)")
        else:
            print_runs(runs, args.entries)
    except BrokenPipeError:  # e.g. piped into head
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
