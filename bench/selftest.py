"""The benchmark's own tests: seeded inputs are byte-identical, and a run at
minimal length prints every metric by name and unit on every workload.

Run from the root of a checkout (about six minutes, mostly forecasting):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

TMP = ROOT / ".bench_work" / "selftest"
DATA = ROOT / "src" / "epiforecast" / "data"


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class SeededInputs(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(TMP, ignore_errors=True)
        self.addCleanup(shutil.rmtree, TMP, True)

    def test_same_seed_writes_identical_files(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = inputs.make_inputs(workload, 7, DATA, TMP / workload / "a")
                second = inputs.make_inputs(workload, 7, DATA, TMP / workload / "b")
                self.assertEqual(_files(TMP / workload / "a"), _files(TMP / workload / "b"))
                self.assertEqual([(i.label, i.command) for i in first],
                                 [(i.label, i.command) for i in second])

    def test_seed_changes_the_generated_inputs(self):
        for workload in ("forecast_long", "risktree"):
            with self.subTest(workload=workload):
                a = inputs.make_inputs(workload, 1, DATA, TMP / workload / "a")
                b = inputs.make_inputs(workload, 2, DATA, TMP / workload / "b")
                self.assertNotEqual(
                    (_files(TMP / workload / "a"), [i.label for i in a]),
                    (_files(TMP / workload / "b"), [i.label for i in b]))

    def test_long_series_shape(self):
        [item] = inputs.make_inputs("forecast_long", 3, DATA, TMP / "long")
        rows = item.full.read_text().splitlines()
        self.assertEqual(rows[0], "date,cases")
        self.assertEqual(len(rows) - 1, inputs.LONG_DAYS)
        self.assertEqual(len(item.train.read_text().splitlines()), len(rows) - inputs.HORIZON)


class SmokeRun(unittest.TestCase):
    """One run per workload and mode at the minimal length."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def _run(self, workload: str, trace: int) -> tuple[list[str], dict]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        return lines[:-1], json.loads(lines[-1])

    def _check(self, workload: str, trace: int, kind: str):
        report, result = self._run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], report)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        text = "\n".join(report)
        if trace:
            for name, unit in expected.items():
                self.assertRegex(text, rf"{re.escape(name)}\s+\S+ {re.escape(unit)}\b")
        else:
            for name in ("forecast_s", "holdout_rmse_rel", "risktree_s", "risktree_cv_error",
                         "failed_ratio", "peak_rss_mb", "setup_s"):
                self.assertRegex(text, rf"\b{name}\b")
            self.assertGreater(result["metrics"]["op_s"]["value"], 0)
            self.assertGreater(result["metrics"]["error_rel"]["value"], 0)
        self.assertIn('"arima.HAVE_NUMBA"', text)
        return result

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self._check(workload, 0, "end_to_end")

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self._check(workload, 1, "per_layer")["metrics"]
                used = "tree.cross_validate.busy_s" if workload == "risktree" \
                    else "arima.select_order.busy_s"
                self.assertGreater(metrics[used]["value"], 0)

    def test_refuses_to_run_without_the_package(self):
        empty = TMP / "bare"
        shutil.rmtree(empty, ignore_errors=True)
        shutil.copytree(BENCH, empty / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", empty)
        self.addCleanup(shutil.rmtree, empty, True)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "risktree", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
