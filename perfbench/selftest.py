#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload shrunk to a few small problems, traced and untraced, and
checks the result line against BENCHMARK.json; then plants output mismatches
and checks that they count as failed operations. Not collected by pytest, so
the repository's own test run does not pick it up.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = run.ROOT / run.WORK / "selftest"

TINY = {
    "suite-default": run.Suite((5, 6), 2),
    "suite-large-k": run.Suite((6, 6), 1),
    "lambda-battery": run.Battery(6, 3, 5),
    "cli-oracle-files": run.OracleFiles((5, 6), 2),
}


class CorruptedSuite(run.Suite):
    """A suite whose first run record claims the opposite ground truth."""

    def run_pass(self, rz, inputs):
        status = super().run_pass(rz, inputs)
        path = Path(inputs["config"].out_dir) / "runs.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        first["ground_truth"] = not first["ground_truth"]
        lines[0] = json.dumps(first, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return status


def bench(workload, trace=0, seed=7, record=False, **kwargs):
    """Run the benchmark in-process; return (exit status, result line object)."""
    kwargs.setdefault("workloads", TINY)
    kwargs.setdefault("golden_path", SCRATCH / "golden.json")
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = run.main(argv + ["--record"] * record, **kwargs)
    return status, json.loads(buf.getvalue().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    status, result = bench(workload, trace)
                    self.assertEqual(status, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_golden_digest_mismatch_fails(self):
        golden = SCRATCH / "golden.json"
        bench("suite-default", golden_path=golden, record=True)
        doc = json.loads(golden.read_text(encoding="utf-8"))
        doc["suite-default"]["7"]["files"]["summary.json"] = "0" * 64
        golden.write_text(json.dumps(doc), encoding="utf-8")
        _, result = bench("suite-default", golden_path=golden)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ops_ok_share"]["value"], 1)

    def test_golden_counter_mismatch_fails(self):
        golden = SCRATCH / "golden.json"
        bench("cli-oracle-files", golden_path=golden, record=True)
        doc = json.loads(golden.read_text(encoding="utf-8"))
        doc["cli-oracle-files"]["7"]["counters"]["queries"] += 1
        golden.write_text(json.dumps(doc), encoding="utf-8")
        _, result = bench("cli-oracle-files", golden_path=golden)
        self.assertEqual(result["failed"], 1)

    def test_wrong_ground_truth_fails(self):
        workloads = dict(TINY, **{"suite-default": CorruptedSuite((5, 6), 2)})
        _, result = bench("suite-default", workloads=workloads)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ops_ok_share"]["value"], 1)

    def test_refuses_to_run_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "suite-default", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
