"""Self-tests for the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

They check that generation depends on the seed alone, that every output
checker accepts the program's correct output and rejects it with one
coefficient altered (so no check passes vacuously), that the verdict logic
counts known faults as failed without hiding other faults, and that the
metric lists agree with BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _cli(argv) -> str:
    from embtrees.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    assert status == 0, argv
    return out.getvalue()


def _alter_one(text: str, fmt: str) -> str:
    """The same output with one coefficient (near the middle) increased by 1."""
    if fmt == "csv":
        lines = text.strip().splitlines()
        k = len(lines) // 2
        n, num, den = lines[k].split(",")
        lines[k] = f"{n},{int(num) + int(den)},{den}"
        return "\n".join(lines) + "\n"
    data = json.loads(text)
    coeffs = data["coeffs"] if "coeffs" in data else next(iter(data["rows"].values()))
    k = len(coeffs) // 2
    coeffs[k] = str(Fraction(coeffs[k]) + 1)
    return json.dumps(data)


class Generation(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for seed in (0, 7, 123456):
            for workload in ("queries", "cache"):
                first = workloads.round_ops(workload, seed)
                self.assertEqual(first, workloads.round_ops(workload, seed))
            self.assertEqual(workloads.cache_keys(seed), workloads.cache_keys(seed))

    def test_seed_changes_inputs_not_shape(self):
        a, b = workloads.queries_round(1), workloads.queries_round(2)
        self.assertNotEqual(a, b)
        self.assertEqual(len(a), len(b))
        self.assertGreaterEqual(len(a), 100)
        for ops in (a, b):
            faults = [op for op in ops if op in workloads.KNOWN_FAULTS]
            self.assertEqual(len(faults), len(workloads.KNOWN_FAULTS))
        for seed in (1, 2):
            stream = workloads.cache_round(seed)
            keys = workloads.cache_keys(seed)
            self.assertEqual(len(set(keys)), len(keys))
            self.assertEqual(set(stream), set(keys))
            self.assertLess(len(keys), len(stream) / 10)


class Checkers(unittest.TestCase):
    """Real program output passes; the same output with one coefficient altered fails."""

    def test_every_query_kind(self):
        seen = set()
        for argv in workloads.queries_round(0) + workloads.cache_keys(0):
            q = oracles.parse_query(argv)
            kind = (argv[0], q.level is None, q.method, q.excursions, q.mark_endpoint,
                    q.mode, q.boundary, q.oracle, q.format)
            if kind in seen:
                continue
            seen.add(kind)
            text = _cli(argv)
            ok, detail = oracles.check_output(argv, text)
            if argv in workloads.KNOWN_FAULTS:
                self.assertFalse(ok, f"known fault passed: {argv}")
                continue
            self.assertTrue(ok, f"{argv}: {detail}")
            fmt = "json" if q.mark_endpoint else q.format
            bad, _ = oracles.check_output(argv, _alter_one(text, fmt))
            self.assertFalse(bad, f"altered output passed: {argv}")
        self.assertGreater(len(seen), 20)


class Verdicts(unittest.TestCase):
    def _raw_cli(self, argv, text, statuses_digests):
        return {"ops": [list(argv)], "texts": {json.dumps(list(argv)): text},
                "rounds": [[[1.0, s, d]] for s, d in statuses_digests]}

    def test_cli_verdicts(self):
        argv = ("trees", "--w1", "1", "--order", "12")
        text = _cli(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.assertEqual(run.judge_cli(self._raw_cli(argv, text, [(0, digest)] * 2)),
                         (True, 2, 0, []))
        stale = self._raw_cli(argv, text, [(0, digest), (0, "0" * 64)])
        correct, attempted, failed, _ = run.judge_cli(stale)
        self.assertEqual((correct, attempted, failed), (False, 2, 1))
        crashed = self._raw_cli(argv, text, [("KeyError: -2", digest)])
        self.assertFalse(run.judge_cli(crashed)[0])

    def test_known_fault_counts_failed_but_correct(self):
        argv = workloads.KNOWN_FAULTS[0]
        text = _cli(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.assertEqual(run.judge_cli(self._raw_cli(argv, text, [(0, digest)])),
                         (True, 1, 1, []))

    def test_verify_verdicts(self):
        good = [[cid, "pass", 1, ""] for cid in workloads.CHECK_IDS]
        conj = workloads.CHECK_IDS.index(workloads.CONJECTURE_CHECK)
        good[conj][1] = "conjecture-consistent"
        self.assertEqual(run.judge_verify({"rounds": [good]}), (True, 30, 0, []))
        failing = [list(r) for r in good]
        failing[0][1] = "fail"
        self.assertEqual(run.judge_verify({"rounds": [failing]})[:3], (False, 30, 1))
        self.assertFalse(run.judge_verify({"rounds": [good[1:]]})[0])
        soft = [list(r) for r in good]
        soft[0][1] = "conjecture-consistent"
        self.assertFalse(run.judge_verify({"rounds": [soft]})[0])


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        import time

        t = tracing.Tracer()

        def inner():
            time.sleep(0.02)

        inner_w = t.wrap("inner", inner)

        def outer():
            inner_w()
            inner_w()
            time.sleep(0.01)

        t.wrap("outer", outer)()
        summary = t.summary()
        self.assertEqual(summary["inner"]["calls"], 2)
        self.assertGreaterEqual(summary["inner"]["self_ms"], 40)
        self.assertLess(summary["outer"]["self_ms"], 30)
        self.assertAlmostEqual(summary["outer"]["total_ms"],
                               summary["outer"]["self_ms"] + summary["inner"]["total_ms"],
                               places=6)

    def test_coefficient_products(self):
        from embtrees.series import Series

        t = tracing.Tracer()
        a, b = Series([1, 0, 2, 0, 3]), Series([0, 5, 0, 0, 7])
        t.count_series_product((a, b))
        brute = sum(1 for i in range(5) for j in range(5 - i) if a[i] and b[j])
        self.assertEqual(t.coeff_products, brute)


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        # queries spreads too far between runs on a shared host to carry a
        # bound, so it is run by hand and left out of the listed workloads
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in workloads.WORKLOADS if w != "queries"])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
