"""The benchmark's own tests.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest discover -s perfbench/tests -v

The C++ side of the checks lives in `hpcs_perfbench --selftest`: the same seed
gives the same digests, the sweep through exp::ParallelRunner reproduces the
serial digests (including the siesta and metbenchvar workloads' own points), a
different seed gives different inputs, every metric name is well formed, and
the forwarding decorators leave every result digest unchanged.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: the build step)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())["map"]


class BenchmarkJsonTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})

    def test_metric_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_s_and_bounds(self):
        e2e = {m["name"]: m for m in BENCH["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(max(m["bound"] for m in BENCH["end_to_end"]), e2e["setup_s"]["bound"])

    def test_layer_map_covers_every_layer_metric(self):
        layer = {m["name"] for m in BENCH["per_layer"]}
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        workloads = {w["name"] for w in BENCH["workloads"]}
        self.assertEqual(set(LAYER_MAP), layer)
        for row in LAYER_MAP.values():
            self.assertLessEqual(set(row["moves"]), e2e)
            self.assertLessEqual(set(row["on"]) | set(row.get("no_move_on", [])), workloads)


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(run.build())

    def bench(self, workload, seed, trace):
        out = subprocess.run([self.binary, "--workload", workload, "--seed", str(seed),
                              "--seconds", "0.1", "--trace", str(trace)],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_selftest(self):
        out = subprocess.run([self.binary, "--selftest"], capture_output=True, text=True,
                             check=False)
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_end_to_end_run_reports_the_catalogue(self):
        res = self.bench("metbenchvar", 3, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 4)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in BENCH["end_to_end"]])
        for m in BENCH["end_to_end"]:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(res["metrics"][m["name"]]["value"], 0)

    def test_traced_counts_repeat_and_cover_the_catalogue(self):
        a = self.bench("metbenchvar", 3, 1)
        b = self.bench("metbenchvar", 3, 1)
        self.assertTrue(a["correct"] and b["correct"])
        self.assertEqual(list(a["metrics"]), [m["name"] for m in BENCH["per_layer"]])
        for m in BENCH["per_layer"]:
            if m["unit"] == "count" or m["unit"] == "bytes":
                self.assertEqual(a["metrics"][m["name"]], b["metrics"][m["name"]], m["name"])

    def test_bad_arguments_fail(self):
        out = subprocess.run([self.binary, "--workload", "nope"], capture_output=True,
                             text=True, check=False)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
