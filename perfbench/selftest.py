"""Self-tests of the benchmark: python3 perfbench/selftest.py

Tiny-size runs of every workload must print every declared metric with its
unit and no failed check, and fault-injected outputs must be counted as
failed.  Kept out of the package's pytest suite on purpose (the file name
does not match test_*.py); runs in about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402,F401  (pins the BLAS pool before numpy loads)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work" / "selftest"
run_span = Tracer().span   # disabled: spans cost nothing


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload, trace=0, seed=7):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "0.2", "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return result_of(proc)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


class TinyRuns(unittest.TestCase):

    def test_every_workload_prints_end_to_end_metrics(self):
        for w in (wl["name"] for wl in SPEC["workloads"]):
            with self.subTest(workload=w):
                res = tiny(w)
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, units("end_to_end"))
                self.assertTrue(all(v["value"] > 0
                                    for v in res["metrics"].values()))

    def test_traced_loops_counts(self):
        first, second = tiny("loops", trace=1), tiny("loops", trace=1)
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        self.assertEqual(got, units("per_layer"))
        m = {k: v["value"] for k, v in first["metrics"].items()}
        points = workloads.SIZES["tiny"]["sinc_points"]
        # one point per pass through sinc_compare: 2048 positive Gauss
        # nodes; S_quadrature twice per CLI point (pool worker included)
        # plus criterion 7's three strip-zero points and the identity
        self.assertEqual(m["sinc.G_xy.calls"], 2048 * points)
        self.assertEqual(m["sinc.S_quadrature.calls"], 2 * points + 4)
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith(".calls")} for r in (first, second)]
        self.assertEqual(counts[0], counts[1])

    def test_without_sources_fails_without_result(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "loops", "--seed", "1", "--seconds",
                         "1", "--trace", "0", cwd=bare,
                         script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


class FaultInjection(unittest.TestCase):

    def setUp(self):
        WORK.mkdir(parents=True, exist_ok=True)
        self.size = workloads.SIZES["tiny"]

    def test_residual_over_bound(self):
        ctx = workloads.parseval_setup(1, self.size, WORK)
        ctx["pass"] = 0
        real = workloads.parseval_residual
        workloads.parseval_residual = lambda *a, **k: 2e-2
        try:
            chk = workloads.Checks()
            workloads.parseval_criterion3(ctx, chk, run_span)
        finally:
            workloads.parseval_residual = real
        self.assertTrue(any(f.startswith("c3.residual")
                            for f in chk.failures))

    def test_flipped_csv_digit(self):
        ctx = workloads.sinc_setup(1, self.size, WORK)
        ctx["reference"], ctx["pass"] = {}, 0
        chk = workloads.Checks()
        workloads.sinc_cli(ctx, chk, run_span)
        self.assertEqual(chk.failures, [])
        text = ctx["files"][0].read_text()
        header, row = text.splitlines()[:2]
        cells = row.split(",")
        col = header.split(",").index("s0_re")
        digit = next(i for i, ch in enumerate(cells[col]) if ch in "123456789")
        old = cells[col][digit]
        cells[col] = (cells[col][:digit] + ("5" if old != "5" else "6")
                      + cells[col][digit + 1:])
        bad = "\n".join([header, ",".join(cells)]
                        + text.splitlines()[2:]) + "\n"
        chk = workloads.Checks()
        workloads.check_sinc_csv(chk, bad, ctx["sets"][0]["points"])
        self.assertTrue(any("deviation" in f for f in chk.failures))
        chk = workloads.Checks()
        workloads.expect_same_bytes(chk, ctx, "sinc[0].sinc.csv",
                                    bad.encode())
        self.assertEqual(len(chk.failures), 1)

    def test_dense_fast_mismatch(self):
        chk = workloads.Checks()
        workloads.check_dense_fast(chk, 1.0e-5, 1.0e-5 * (1 + 1e-4))
        self.assertEqual(chk.failures, [])
        workloads.check_dense_fast(chk, 1.0e-5, 1.1e-5)
        self.assertEqual(len(chk.failures), 1)

    def test_crashing_op_is_a_failed_check(self):
        def boom(ctx, chk, span):
            raise ValueError("injected")
        wl = workloads.Workload(
            "boom", (workloads.Part("boom", None, (boom,)),))
        _, chk = wl.run_pass([{}], run_span, 0)
        self.assertEqual(chk.attempted, 1)
        self.assertIn("injected", chk.failures[0])


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
