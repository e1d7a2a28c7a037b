#!/usr/bin/env python3
"""The benchmark's own tests: every declared metric is emitted with its unit.

Runs each workload in smoke mode (tiny data, a one-second window), traced and
untraced, through run.py, and checks the last line against BENCHMARK.json:
the declared workloads, and tpcd_noindex, which runs but is not declared.
Also checks that --compare refuses runs whose meta differ. From the root of
a checkout:

    python3 perfbench/test_run.py

The first run builds the benchmark; after that the suite takes seconds.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["tpcd_noindex"]


def smoke(workload, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        lines = smoke(workload, trace)
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"], lines[-1])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(last["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = last["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # The full table printed above the last line names every metric.
            self.assertTrue(any(line.startswith(m["name"] + " ")
                                for line in lines[:-1]), m["name"])
        if not trace:
            for m in declared:
                self.assertGreater(last["metrics"][m["name"]]["value"], 0,
                                   m["name"])

    def test_workloads(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class CompareTest(unittest.TestCase):
    def test_refuses_differing_meta(self):
        smoke("served_small", 0)
        report = ROOT / ".bench_build" / "reports" / \
            "served_small-seed7-trace0-smoke.json"
        doc = json.loads(report.read_text())
        with tempfile.TemporaryDirectory() as tmp:
            same = Path(tmp) / "same.json"
            other = Path(tmp) / "other.json"
            doc["meta"]["seed"] = 8  # the seed alone does not block
            same.write_text(json.dumps(doc))
            doc["meta"]["nproc"] = doc["meta"]["nproc"] + 1
            other.write_text(json.dumps(doc))
            ok = subprocess.run(RUN + ["--compare", str(report), str(same)],
                                capture_output=True, text=True)
            self.assertEqual(ok.returncode, 0, ok.stderr)
            refused = subprocess.run(
                RUN + ["--compare", str(report), str(other)],
                capture_output=True, text=True)
            self.assertNotEqual(refused.returncode, 0)
            self.assertIn("nproc", refused.stdout)


if __name__ == "__main__":
    unittest.main()
