"""Self-tests of the benchmark: its oracles reject wrong outputs, and a short
run emits exactly the metrics BENCHMARK.json lists.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from hypspeed import comb, domains, verify  # noqa: E402


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class OracleTests(unittest.TestCase):
    def test_table_row_perturbed_by_1e6_is_rejected(self):
        wl = workloads.Tables(0)
        dom = {"type": "sector", "p": [1.0, -2.0], "alpha": 0.7, "beta": 1.9}
        op = workloads.TABLE_DOMAINS.index(dom) * 2 + workloads.TABLE_T_MAX.index("1e12")
        code, text = wl.run(op)
        self.assertEqual(code, 0)
        rows = workloads.parse_table(text)
        self.assertEqual(workloads.split_errors(rows), [])
        for i in (0, 255, 511):
            self.assertEqual(oracle.check_table_row(dom, 1e12, 512, i, rows[i]), [])
        for col in range(6):
            bad = list(rows[255])
            bad[col] *= 1 + 1e-6
            self.assertTrue(oracle.check_table_row(dom, 1e12, 512, 255, tuple(bad)), col)

    def test_report_with_one_violation_is_rejected(self):
        report = verify.run_suite("comb", seed=3).to_dict()
        self.assertEqual(oracle.check_suite_report(report, "comb", 3, 10), [])
        report["violations"] = 1
        self.assertTrue(oracle.check_suite_report(report, "comb", 3, 10))

    def test_quadrature_off_by_1e8_is_rejected(self):
        for name, dom in workloads.CERTIFY_DOMAINS.items():
            t0, t1 = 1.3, 1.3 * math.exp(7.0)
            q = domains.quasihyp_lower(dom, t0, t1)
            self.assertIsNone(oracle.check_quadrature(name, t0, t1, q), name)
            self.assertIsNotNone(oracle.check_quadrature(name, t0, t1, q * (1 + 1e-8)), name)

    def test_comb_bound_off_by_1e8_is_rejected(self):
        cc = comb.build_comb("log1p", "linear", 6)
        rows = comb.verify_comb(cc)
        certifier = oracle.CombOracle()
        self.assertEqual(certifier.check("log1p", cc.a, cc.b, rows), [])
        rows[3] = dict(rows[3], bound=rows[3]["bound"] * (1 + 1e-8))
        self.assertTrue(certifier.check("log1p", cc.a, cc.b, rows))

    def test_inputs_match_the_program(self):
        self.assertEqual(metrics.SUITE_NAMES, tuple(verify.SUITES))
        self.assertEqual(sorted(workloads.EXPECTED_SAMPLES), sorted(verify.SUITES))
        builtin = [domains.domain_to_json(d) for d in verify.BUILTIN_DOMAINS.values()]
        self.assertEqual(list(workloads.TABLE_DOMAINS[:5]), builtin)


class SmokeTests(unittest.TestCase):
    def _run(self, workload: str, trace: int, cwd: str = ROOT):
        cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "1", "--trace", str(trace)]
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)

    def _result(self, workload: str, trace: int) -> dict:
        proc = self._run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        return res

    def test_end_to_end_metrics_are_those_listed(self):
        listed = {m["name"]: m["unit"] for m in _bench_json()["end_to_end"]}
        res = self._result("certify", 0)
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, listed)

    def test_per_layer_metrics_are_those_listed(self):
        listed = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
        res = self._result("tables", 1)
        got = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, listed)
        self.assertEqual(got["domains.to_halfplane.calls"], 513)
        self.assertEqual(got["hyperbolic.k_half.calls"], 512)
        shares = sum(got[f"{layer}.self_share"] for layer in metrics.LAYERS)
        self.assertTrue(0.9 < shares <= 1.0, shares)

    def test_checkout_without_sources_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = self._run("certify", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
