#!/usr/bin/env python3
"""One sha256 over the package's exact outputs, to show two trees agree.

A change that claims bit-identical outputs runs this on both trees and
compares the printed digests.  The digest covers:

* the CLI's ``trees --method closed`` path, ``binary_Tj_closed`` at the
  parameter ``adapt_lambda`` gives (order 18), for 6 weight vectors x
  both boundaries x levels -1..3 at order 12 (a refused input hashes as
  its error);
* ``meander_gf`` (plain and marked) and ``meander_dp`` (totals and
  table) for 5 step sets x 6 levels at order 25;
* small factors: ``family_base`` for those step sets' kind lists and
  for five d-ary families' kind lists;
* the single-branch d-ary alpha claims (``dary._one_param_parts``), and
  the values ``levels.recomputed_alphas`` recomputes from them;
* the ``dary_alpha_general`` tables for the odd and even families with
  d = 1, 2 (bound 3, order 15) and odd d = 3 (bound 2, order 12), in
  three sections: ``tables``, every entry in full (each coordinate
  and the stored order, after a literal 0 where a z-shift was once
  hashed); ``tables@order``, each coordinate cut to the
  table's order argument, those that vanish there left out, which holds
  however many orders a table stores beyond it; and ``rho``, the ``rho_series`` levels that
  ``verify_main_equation`` reads;
* the lock-step, random-turn and quarter-plane DP tables.

A second line hashes the walker closed forms, each built cell by cell
through its public function: ``lockstep_star`` for the three boundaries
and ``lockstep_refined`` at the campaign's marks (orders 16 and 12), at
every cell with i, j <= 4; ``randomturn_gf`` for both step sets and
boundaries on the same cells; ``quarterplane_gf`` for S1 and S2 with
i, j <= 2.  It has a line of its own so that the first line compares
with trees older than that section.

A third line hashes the series expansion coefficients of
``levels.alpha_recurrence``: on the binary kind lists of ``WEIGHTS`` and
the campaign's weight vectors, n_max 12 and order 30; on the height kind
lists at the campaign's and the tests' inputs; and on the ternary kind
list, with ``level_residual``, at the campaign's and the tests' inputs.

Run from a checkout:

    PYTHONPATH=src python scripts/output_digest.py [--sections]

``--sections`` also prints one digest per section, to find where two
trees part.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from fractions import Fraction as Q

from embtrees import binary as B
from embtrees import dary as D
from embtrees import paths as P
from embtrees import walkers as W
from embtrees.errors import EmbtreesError
from embtrees.kernel import family_base
from embtrees.levels import alpha_recurrence, level_residual, recomputed_alphas
from embtrees.multipoly import MultiPoly, RationalFunction
from embtrees.series import Series
from embtrees.steps import StepSet

WEIGHTS = ((0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0),
           (2, 1, 1, 1, 1), (1, 1, 1, 0, 0), (0, 1, 2, 1, 1))
STEP_SETS = (((-1, 1), (1, 1)), ((-1, 1), (0, 1), (1, 1)),
             ((-2, 1), (-1, 2), (1, 1), (3, 1)), ((-1, 2), (1, 3)),
             ((-3, 1), (2, Q(1, 2))))
FAMILIES = (D.DaryFamily("odd", 1), D.DaryFamily("odd", 2), D.DaryFamily("even", 1),
            D.DaryFamily("even", 2), D.DaryFamily("even", 3))
TABLES = ((D.DaryFamily("odd", 1), 3, 15), (D.DaryFamily("even", 1), 3, 15),
          (D.DaryFamily("odd", 2), 3, 15), (D.DaryFamily("even", 2), 3, 15),
          (D.DaryFamily("odd", 3), 2, 12))


def canon(x):
    """A canonical nested structure of strings for any output value."""
    if hasattr(x, "ratios"):  # Series
        return ("S", [f"{p}/{q}" for p, q in x.ratios()])
    if hasattr(x, "extract"):  # MarkerSeries
        return ("M", [sorted((k, str(v)) for k, v in s.items()) for s in x.coeffs])
    if hasattr(x, "terms") and hasattr(x, "variables"):  # MultiPoly
        return ("P", x.variables, sorted((e, str(c)) for e, c in x.terms.items()))
    if hasattr(x, "num") and hasattr(x, "den"):  # RationalFunction
        return ("R", canon(x.num), canon(x.den))
    if isinstance(x, dict):
        return ("D", sorted((repr(k), canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return ("L", [canon(v) for v in x])
    return ("V", str(x))


def guarded(fn):
    try:
        return fn()
    except EmbtreesError as exc:
        return f"error {type(exc).__name__}"


def binary_section():
    out = []
    for vec in WEIGHTS:
        w = B.BinaryWeights.make(*vec)
        out += [guarded(lambda: B.binary_Tj_closed(w, B.adapt_lambda(w, b, 18), j, 12))
                for b in (0, 1) for j in range(-1, 4)]
    return out


def paths_section():
    out = []
    for pairs in STEP_SETS:
        steps = StepSet.make(pairs)
        for level in range(6):
            gf = P.meander_gf(steps, level, 25)
            out += [gf.start_level, gf.plain, gf.marked, P.meander_dp(steps, level, 25)]
    return out


def factor_section():
    out = [family_base(StepSet.make(pairs).kinds, 30)[0].elementary for pairs in STEP_SETS]
    out += [family_base(fam.kinds, 20)[0].elementary for fam in FAMILIES]
    return out


def alpha_section():
    out = []
    for fam in FAMILIES:
        out.append(D._one_param_parts(fam, 10))
        if fam.d < 3:  # alpha_1 = 1, then the prover's recomputed alpha_2..alpha_10
            one = RationalFunction(MultiPoly.const(("X",), 1))
            out.append([one] + recomputed_alphas(fam.kinds, *D._one_param_parts(fam, 10)))
    return out


@functools.cache
def built_tables():
    """Each table with its order, at verify_main_equation's default seeds."""
    out = []
    for fam, bound, order in TABLES:
        s_val = order // (bound + 1) + 1
        seeds = [Series.z(order + 4) ** s_val for _ in range(fam.branch_count)]
        out.append((fam, order, D.dary_alpha_general(fam, bound, seeds, order)))
    return out


def table_section():
    return [(index, 0, entry.stored_order, entry.coeffs)
            for _, _, table in built_tables() for index, entry in sorted(table.entries.items())]


def cut_to_order(entry, order: int) -> dict:
    """An entry's coordinates cut to ``order``, those that vanish there dropped."""
    cut = {e: s.truncate(order) for e, s in entry.coeffs.items()}
    return {e: s for e, s in cut.items() if not s.is_zero()}


def table_at_order_section():
    return [(index, 0, cut_to_order(entry, order))
            for _, order, table in built_tables()
            for index, entry in sorted(table.entries.items())]


def rho_section():
    # the levels verify_main_equation reads
    return [D.rho_series(table, j, order) for fam, order, table in built_tables()
            for j in range(0, -min(fam.offsets) + 1 + max(fam.offsets) + 1)]


def dp_section():
    out = [W.lockstep_dp_table(Q(1, 2), Q(1, 3), 12), W.lockstep_dp_table(1, 0, 10)]
    for steps in ("dyck", "motzkin"):
        for boundary in ("vicious", "osculating"):
            out.append(W.randomturn_dp_table(steps, boundary, 10))
    for model in ("S1", "S2"):
        out += [W.quarterplane_dp(model, i, j, 12) for i in range(3) for j in range(3)]
    return out


def walkers_section():
    cells = [(i, j) for i in range(5) for j in range(5)]
    out = [W.lockstep_star(boundary, i, j, 20).series
           for boundary in ("vicious", "osculating", "updown") for i, j in cells]
    marks = ((Q(1, 2), Q(1, 3)), (Q(2), Q(1)), (0, 0), (1, 0), (1, 1))
    out += [W.lockstep_refined(u, w, i, j, order).series
            for order in (16, 12) for u, w in marks for i, j in cells]
    out += [W.randomturn_gf(steps, boundary, i, j, 20).series for steps in ("dyck", "motzkin")
            for boundary in ("vicious", "osculating") for i, j in cells]
    out += [W.quarterplane_gf(model, i, j, 20)
            for model in ("S1", "S2") for i in range(3) for j in range(3)]
    return out


def recurrence(kinds, n_max: int, order: int) -> list:
    small, T = family_base(kinds, order)
    return alpha_recurrence(kinds, small.elementary[0], T, n_max)


def series_alphas_section():
    vectors = WEIGHTS + ((0, 0, 0, 0, 1), (1, 0, 0, 0, 1))
    out = [recurrence(B.BinaryWeights.make(*vec).kinds, 12, 30) for vec in vectors]
    out += [recurrence(B._height_kinds(Q(v1), Q(v2)), n_max, order)
            for v1, v2 in ((0, 0), (1, 0), (2, 3)) for n_max, order in ((8, 20), (10, 24))]
    for v1, v2, n_max, alpha_order, order in ((0, 0, 8, 30, None), (1, 2, 6, 20, 12),
                                              (1, 0, 8, 24, 17)):
        kinds = B._ternary_kinds(Q(v1), Q(v2))
        small, T = family_base(kinds, alpha_order)
        X = small.elementary[0]
        alphas = alpha_recurrence(kinds, X, T, n_max)
        out.append(alphas)
        if order is not None:
            out.append(level_residual(kinds, alphas, X, T, 2, order))
    return out


SECTIONS = (("binary", binary_section), ("paths", paths_section),
            ("factors", factor_section), ("alphas", alpha_section),
            ("tables", table_section), ("tables@order", table_at_order_section),
            ("rho", rho_section), ("dp", dp_section))
CLOSED_SECTIONS = (("walkers", walkers_section), ("series-alphas", series_alphas_section))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sections", action="store_true", help="print one digest per section")
    args = parser.parse_args()
    total = hashlib.sha256()
    for name, build in SECTIONS:
        text = repr(canon(build())).encode()
        total.update(text)
        if args.sections:
            print(f"{name:<12} {hashlib.sha256(text).hexdigest()}")
    print(total.hexdigest())
    for name, build in CLOSED_SECTIONS:
        print(f"{name:<12} {hashlib.sha256(repr(canon(build())).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
