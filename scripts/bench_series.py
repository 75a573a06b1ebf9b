#!/usr/bin/env python3
"""Microbenchmark of the series ring: the integer core against Fractions.

Times series multiplication, division and square root at orders 30, 100
and 200 on fixed-seed inputs, once with ``embtrees.series.Series`` and
once with the plain-Fraction reference kept in
``tests/test_series_core.py`` (schoolbook products, the division and
square-root recurrences), and checks that both give the same
coefficients.  It also times the Fraction boundary of the core: building
a series from Fractions and reading ``coeffs`` back.  Results go to a
JSON file:

    PYTHONPATH=src python scripts/bench_series.py --out BENCH_series.json

Each figure is the median of ``--repeats`` timed runs, in microseconds.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from embtrees.series import Series  # noqa: E402
from test_series_core import ref_div, ref_mul, ref_sqrt  # noqa: E402

ORDERS = (30, 100, 200)


def inputs(order: int, kind: str, rng: random.Random) -> tuple[list[Q], list[Q]]:
    """Two coefficient lists with constant term 1: 40-bit integers or small rationals."""
    def coeff() -> Q:
        if kind == "int40":
            return Q(rng.randint(-(2**40), 2**40))
        return Q(rng.randint(-(2**20), 2**20), rng.randint(1, 12))
    return ([Q(1)] + [coeff() for _ in range(order - 1)],
            [Q(1)] + [coeff() for _ in range(order - 1)])


def timed_us(fn, repeats: int) -> float:
    runs = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        runs.append((time.perf_counter() - started) * 1e6)
    return statistics.median(runs)


def bench(repeats: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    rows = []
    for kind in ("int40", "rational"):
        for order in ORDERS:
            a, b = inputs(order, kind, rng)
            sa, sb = Series(a), Series(b)
            cases = {
                "mul": (lambda: sa * sb, lambda: ref_mul(a, b)),
                "div": (lambda: sa / sb, lambda: ref_div(a, b)),
                "sqrt": (lambda: sa.sqrt(), lambda: ref_sqrt(a)),
            }
            for op, (core, ref) in cases.items():
                if list(core().coeffs) != ref():
                    raise AssertionError(f"{op} at order {order} ({kind}) disagrees")
                core_us = timed_us(core, repeats)
                ref_us = timed_us(ref, max(1, repeats // 10))
                rows.append({"op": op, "order": order, "coeffs": kind,
                             "core_us": round(core_us, 1), "fraction_us": round(ref_us, 1),
                             "speedup": round(ref_us / core_us, 1)})
            rows.append({"op": "from_fractions", "order": order, "coeffs": kind,
                         "core_us": round(timed_us(lambda: Series(a), repeats), 1)})
            rows.append({"op": "to_fractions", "order": order, "coeffs": kind,
                         "core_us": round(timed_us(lambda: Series(a).coeffs, repeats), 1)})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="BENCH_series.json", help="output JSON path")
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()
    rows = bench(args.repeats, args.seed)
    report = {
        "benchmark": "series ring microbenchmark (scripts/bench_series.py)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "repeats": args.repeats,
        "unit": "microseconds, median of repeats",
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for row in rows:
        ref = f"{row['fraction_us']:>12.1f} us  x{row['speedup']}" if "speedup" in row else ""
        print(f"{row['op']:<15} {row['coeffs']:<9} {row['order']:>4} "
              f"{row['core_us']:>10.1f} us {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
