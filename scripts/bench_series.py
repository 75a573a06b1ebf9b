#!/usr/bin/env python3
"""Microbenchmark of the exact rings: the integer cores against Fractions.

Times series multiplication, division and square root at orders 30, 100
and 200 on fixed-seed inputs, once with ``embtrees.series.Series`` and
once with the plain-Fraction reference kept in
``tests/test_series_core.py`` (schoolbook products, the division and
square-root recurrences), and checks that both give the same
coefficients.  The ``mul_tree`` rows time a product the package itself
makes, the binary root T times T^2 at rational weights, at the same
orders.  It also times the Fraction boundary of the core: building
a series from Fractions and reading ``coeffs`` back.

The same comparison covers the other integer cores, against the
references in ``tests/test_marker_multipoly_core.py``: marker-series
products (orders 10, 20 and 40), univariate and three-variable
``MultiPoly`` products, and the three walker dynamic programs (lock-step
and random-turn tables, quarter-plane counts) at orders 10 and 20, each
including its Fraction boundary.  Two rows time the walker checks' DP
work, the integer columns of the cells i, j <= 4 at order 20 (lock-step
at marks (1/2, 1/3), random-turn Motzkin osculating), against those
cells read from the reference tables.  The ``meander_terms`` row times
the meander check's closed side, the terms of ``_meander_parts`` and the
levels 0..5 summed from them at order 25 for the campaign's five step
sets, against the Fraction DP of ``meander_dp`` at the same levels.

The graded-recurrence layers are timed against the first-written forms
kept in the test files: split-algebra products of an expansion-table
entry and a sum of two root monomials (the algebras of c = 2 and c = 3,
at stored order 28 and 31) against the per-pair reduction and ``invert_one_plus`` against full-order Newton steps on it
(``tests/test_splitting.py``); ``hensel_factor_pair`` for the step set
{-2, -1, 1, 3} at order 40 against the Fraction lift
(``tests/test_kernel.py``); ``char_factor``, the one characteristic
solver, through ``family_base`` on each family's kind list at orders 30
and 100, root series T included,
against the forms it replaced: the binary square root and the height
rational form (the campaign's claims), Newton on the ternary and
lock-step quadratics, and ``hensel_factor_pair`` on the even d = 2
polynomial built term by term in ``tests/test_dary.py``; ``levels.recomputed_alphas`` on
the d-ary closed claims against one product per composition
(``tests/test_dary.py``), for odd and even d = 2 and for the four
families the dary/alpha-agreement check runs; the ``alpha_proof`` rows,
the campaign's proofs of the binary claims at (0,0,1,0,0), (0,0,0,1,1)
and (0,0,0,0,1) (n <= 12) and of the height claim at (0,0) (n <= 8),
against the series comparison of the same claims that they replaced; ``level_rows``
against the ``label_spectra`` sums it is tested with; and
``levels.alpha_recurrence``, root and rate included, against the binary
recurrence at w = (2, 1, 1, 1, 1), n_max 12, order 30, and the ternary
one at (v1, v2) = (1, 2), n_max 6, order 20, as first written
(``tests/test_levels.py``).  The expansion-table rows time
``dary_alpha_general`` (even d = 2, bound 3, order 15) against the
table loop it replaced, comparing every coordinate cut to the table's
order, and ``rho_series`` at the levels ``verify_main_equation`` reads,
for the tables of even and odd d = 2 at bound 3 and order 15 that the
props/main-equation-d2 check builds, against the full-precision level
sum (both references in ``tests/test_dary.py``); each timed run reads
a table built afresh outside the timed region, as the check reads its
own.  The ``level_identity`` rows time the binary/one-param-family and
dary/one-param-identity checks' work, ``levels.level_identity`` on the
closed family's rows for its three weight vectors and on
``one_param_rows`` for the five d-ary families, with no reference.
The ``cache_hit`` rows time a result-cache hit, the stored
entry of the binary root T at rational weights read, checked and
printed as json or csv (``SeriesCache.get`` and ``reformat``), at orders
30 and 200, against the import-export round trip the hit once made
(``import_series`` of the file, then ``export_series``).  For every row
that has one, ``fraction_us`` is the time of its reference.  Results go to a JSON file:

    PYTHONPATH=src python scripts/bench_series.py --out BENCH_series.json

Each figure is the median of ``--repeats`` timed runs, in microseconds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction as Q
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from embtrees.binary import (  # noqa: E402
    _CLOSED_PARTS,
    BinaryWeights,
    _height_kinds,
    _height_parts,
    _ternary_kinds,
    binary_alpha,
    closed_family_rows,
    height_alpha,
)
from embtrees.campaign import (  # noqa: E402
    _DARY_FAMILIES,
    _binary_x_radical,
    _first_unproved,
    _height_x_rational,
)
from embtrees.dary import (  # noqa: E402
    DaryFamily,
    _one_param_parts,
    dary_alpha_general,
    one_param_rows,
    rho_series,
)
from embtrees.kernel import (  # noqa: E402
    SeriesPoly,
    _char_poly,
    family_base,
    hensel_factor_pair,
    newton_solve,
    tree_root,
)
from embtrees.levels import (  # noqa: E402
    alpha_recurrence,
    label_spectra,
    level_identity,
    level_rows,
    recomputed_alphas,
)
from embtrees.marker import MarkerSeries  # noqa: E402
from embtrees.multipoly import MultiPoly  # noqa: E402
from embtrees.serialize import SeriesCache, export_series, import_series, reformat  # noqa: E402
from embtrees.series import Series  # noqa: E402
from embtrees.steps import parse_step_set  # noqa: E402
from embtrees.paths import _meander_parts, meander_dp, meander_gf  # noqa: E402
from embtrees.walkers import (  # noqa: E402
    _lockstep_columns,
    _randomturn_columns,
    lockstep_dp_table,
    lockstep_x,
    quarterplane_dp,
    randomturn_dp_table,
)
from test_dary import (  # noqa: E402
    char_poly,
    main_equation_seeds,
    ref_alpha_general,
    ref_one_param_recurrence,
    ref_rho_series,
    rho_levels,
)
from test_kernel import ref_hensel  # noqa: E402
from test_levels import rate_and_root, ref_binary_alpha, ref_ternary_alpha  # noqa: E402
from test_marker_multipoly_core import (  # noqa: E402
    ref_lockstep_table,
    ref_marker_mul,
    ref_poly_mul,
    ref_quarterplane,
    ref_randomturn_table,
)
from test_series_core import ref_div, ref_mul, ref_sqrt  # noqa: E402
from test_splitting import ref_invert_one_plus, ref_mul as ref_sa_mul  # noqa: E402

ORDERS = (30, 100, 200)


def inputs(order: int, kind: str, rng: random.Random) -> tuple[list[Q], list[Q]]:
    """Two coefficient lists with constant term 1: 40-bit integers or small rationals."""
    def coeff() -> Q:
        if kind == "int40":
            return Q(rng.randint(-(2**40), 2**40))
        return Q(rng.randint(-(2**20), 2**20), rng.randint(1, 12))
    return ([Q(1)] + [coeff() for _ in range(order - 1)],
            [Q(1)] + [coeff() for _ in range(order - 1)])


def timed_us(fn, repeats: int, fresh=tuple) -> float:
    """Median time of fn(*fresh()), fresh() run outside the timed region."""
    runs = []
    for _ in range(repeats):
        args = fresh()
        started = time.perf_counter()
        fn(*args)
        runs.append((time.perf_counter() - started) * 1e6)
    return statistics.median(runs)


def bench(repeats: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    rows = []
    for kind in ("int40", "rational"):
        for order in ORDERS:
            a, b = inputs(order, kind, rng)
            sa, sb = Series(a), Series(b)
            compare(rows, "mul", order, kind, lambda: sa * sb, lambda: ref_mul(a, b),
                    repeats, read=coeff_list)
            compare(rows, "div", order, kind, lambda: sa / sb, lambda: ref_div(a, b),
                    repeats, read=coeff_list)
            compare(rows, "sqrt", order, kind, lambda: sa.sqrt(), lambda: ref_sqrt(a),
                    repeats, read=coeff_list)
            rows.append({"op": "from_fractions", "order": order, "coeffs": kind,
                         "core_us": round(timed_us(lambda: Series(a), repeats), 1)})
            rows.append({"op": "to_fractions", "order": order, "coeffs": kind,
                         "core_us": round(timed_us(lambda: Series(a).coeffs, repeats), 1)})
    # a product the package makes: the binary root T times T^2 at rational
    # weights, whose coefficients grow with the index
    w = BinaryWeights.make(Q(1, 2), Q(1, 3), Q(2, 3), Q(1, 5), Q(3, 7))
    for order in ORDERS:
        T = tree_root(w.kinds, order)
        T2 = T * T
        t, t2 = list(T.coeffs), list(T2.coeffs)
        compare(rows, "mul_tree", order, "binary T*T^2", lambda: T * T2,
                lambda: ref_mul(t, t2), repeats, read=coeff_list)
    return rows


def coeff_list(result) -> list:
    return list(result.coeffs)


def terms(result) -> dict:
    return result.terms


def compare(rows: list[dict], op: str, size, kind: str, core, ref, repeats: int,
            read=None, setup=None) -> None:
    """Time core() against ref() after checking that read(core()) == ref().

    Only core() is timed: reading its result back as Fractions is the
    boundary cost, timed in rows of its own.  With ``setup``, core and ref
    take its result as their argument, made afresh before every run and
    outside the timed region.
    """
    fresh = tuple if setup is None else lambda: (setup(),)
    result = core(*fresh())
    if (result if read is None else read(result)) != ref(*fresh()):
        raise AssertionError(f"{op} at {size} ({kind}) disagrees")
    core_us = timed_us(core, repeats, fresh)
    ref_us = timed_us(ref, max(1, repeats // 10), fresh)
    rows.append({"op": op, "order": size, "coeffs": kind,
                 "core_us": round(core_us, 1), "fraction_us": round(ref_us, 1),
                 "speedup": round(ref_us / core_us, 2)})


def bench_layers(repeats: int, seed: int) -> list[dict]:
    """Marker and multipoly products and the walker DPs, Fraction boundary included."""
    rng = random.Random(seed)
    rows: list[dict] = []

    def rational() -> Q:
        return Q(rng.randint(-50, 50), rng.randint(1, 12))

    for order in (10, 20, 40):
        # marker exponents -4..4 in every slice, as in the parameter families
        a, b = ([{p: rational() for p in range(-4, 5)} for _ in range(order)]
                for _ in range(2))
        ma, mb = MarkerSeries(a), MarkerSeries(b)
        compare(rows, "marker_mul", order, "rational", lambda: ma * mb,
                lambda: ref_marker_mul(a, b), repeats, read=coeff_list)
    for degree in (30, 100):
        a, b = ({(k,): Q(rng.randint(-2**20, 2**20)) for k in range(degree + 1)}
                for _ in range(2))
        pa, pb = MultiPoly(("X",), a), MultiPoly(("X",), b)
        compare(rows, "multipoly_mul_1var", degree, "int20", lambda: pa * pb,
                lambda: ref_poly_mul(a, b), repeats, read=terms)
    # three variables, with boxes of exponents from mostly empty to full:
    # random sparse terms with X up to 40 and the other two up to 4 (box
    # 6,561 cells, 3,600 pairs); the shape of the d-ary
    # one-parameter residuals, lam = Y on every term, 720 terms times 4
    # (box 52,038 cells, 2,880 pairs); and a full box with every exponent
    # up to 4 (729 cells, 15,625 pairs)
    sparse = [{(rng.randint(0, 40), rng.randint(0, 4), rng.randint(0, 4)): rational()
               for _ in range(60)} for _ in range(2)]
    diagonal = [{(x, k, k): rational() for x in range(115) for k in range(13) if k <= x // 10},
                {(k, 3 * k, 3 * k): rational() for k in range(4)}]
    full = [{e: rational() for e in itertools.product(range(5), repeat=3)} for _ in range(2)]
    variables = ("X", "lam", "Y")
    for kind, (a, b) in (("sparse", sparse), ("one-param shape", diagonal), ("full box", full)):
        pa, pb = MultiPoly(variables, a), MultiPoly(variables, b)
        compare(rows, "multipoly_mul_3var", max(e[0] for e in a), kind, lambda: pa * pb,
                lambda: ref_poly_mul(a, b), repeats, read=terms)
    marks = (Q(1, 2), Q(1, 3))
    for order in (10, 20):
        compare(rows, "lockstep_dp_table", order, "marks 1/2,1/3",
                lambda: lockstep_dp_table(*marks, order),
                lambda: ref_lockstep_table(*marks, order), repeats)
        compare(rows, "randomturn_dp_table", order, "motzkin osculating",
                lambda: randomturn_dp_table("motzkin", "osculating", order),
                lambda: ref_randomturn_table("motzkin", "osculating", order), repeats)
        compare(rows, "quarterplane_dp", order, "S2 at (2, 2)",
                lambda: quarterplane_dp("S2", 2, 2, order),
                lambda: ref_quarterplane("S2", 2, 2, order), repeats)
    cells = [(i, j) for i in range(5) for j in range(5)]
    compare(rows, "lockstep_columns", 20, "marks 1/2,1/3, i,j<=4",
            lambda: _lockstep_columns(*marks, cells, 20),
            lambda: table_cells(ref_lockstep_table(*marks, 20), cells, marks[0]), repeats,
            read=column_lists)
    compare(rows, "randomturn_columns", 20, "motzkin osculating, i,j<=4",
            lambda: _randomturn_columns("motzkin", "osculating", cells, 20),
            lambda: table_cells(ref_randomturn_table("motzkin", "osculating", 20), cells),
            repeats, read=column_lists)
    step_sets = [parse_step_set(spec) for spec in MEANDER_STEP_SETS]
    compare(rows, "meander_terms", 25, "5 campaign step sets, j<=5",
            lambda: [meander_levels(steps, 25, 5) for steps in step_sets],
            lambda: [[meander_dp(steps, j, 25) for j in range(6)] for steps in step_sets],
            max(1, repeats // 5),
            read=lambda sets: [[(list(gf.plain.coeffs), list(gf.marked.coeffs)) for gf in gfs]
                               for gfs in sets])
    return rows


MEANDER_STEP_SETS = ("-1:1,1:1", "-1:1,0:1,1:1", "-2:1,-1:2,1:1,3:1", "-1:2,1:3", "-3:1,2:1/2")


def table_cells(table, cells, u=1) -> dict:
    """Each cell's column of a Fraction DP table, with u^(zero gaps of the cell)."""
    return {(i, j): [u ** ((i == 0) + (j == 0)) * row[(i, j)] for row in table]
            for i, j in cells}


def column_lists(columns: dict) -> dict:
    return {cell: list(s.coeffs) for cell, s in columns.items()}


def meander_levels(steps, order: int, j_max: int) -> list:
    """The meander check's closed side: the terms once, then every level 0..j_max."""
    parts = _meander_parts(steps, order, j_max)
    return [meander_gf(steps, j, order, parts=parts) for j in range(j_max + 1)]


def sa_value(e) -> tuple:
    return e.coeffs, e.stored_order


def rf_pairs(alphas) -> list:
    return [(a.num, a.den) for a in alphas]


def bench_recurrences(repeats: int) -> list[dict]:
    """Split algebra, Hensel lift and the two graded recurrences, against the old forms."""
    rows: list[dict] = []
    for fam, index, monos in ((DaryFamily("odd", 2), (2, 0), ((4, 0), (2, 1))),
                              (DaryFamily("even", 2), (0, 2, 0), ((4, 2, 0), (0, 2, 4)))):
        # an entry of the table verify_main_equation checks at bound 3,
        # order 15, times a sum of root monomials, as the table makes them
        seeds = [Series.z(19) ** 4 for _ in range(fam.branch_count)]
        table = dary_alpha_general(fam, 3, seeds, 15)
        alg = table.algebra
        a = table.entry(index)
        b = alg.monomial(monos[0]) + alg.monomial(monos[1])
        size = min(a.stored_order, b.stored_order)
        kind = f"c={alg.c}, {len(a.coeffs)}x{len(b.coeffs)} coords"
        compare(rows, "split_mul", size, kind, lambda: a * b,
                lambda: sa_value(ref_sa_mul(a, b)), repeats, read=sa_value)
        u = alg.generator(0) + alg.generator(alg.c - 1) * Q(2, 3)
        compare(rows, "split_invert_one_plus", alg.order, f"c={alg.c}, 1 + X_1 + 2/3 X_c",
                lambda: alg.invert_one_plus(u), lambda: sa_value(ref_invert_one_plus(u)),
                max(1, repeats // 5), read=sa_value)
    steps = parse_step_set("-2:1,-1:1,1:1,3:1")
    f, _ = _char_poly([(w, (b,)) for b, w in steps.steps], Series.one(40), 40)
    compare(rows, "hensel_factor_pair", 40, "steps -2,-1,1,3",
            lambda: hensel_factor_pair(f, 2), lambda: ref_hensel(f, 2), repeats)
    rows += bench_char_factor(repeats)

    def recomputed(fam):
        return recomputed_alphas(fam.kinds, *_one_param_parts(fam, 10))

    for fam in (DaryFamily("odd", 2), DaryFamily("even", 2)):
        compare(rows, "one_param_recurrence", 10, f"{fam.kind} d={fam.d}",
                lambda: recomputed(fam), lambda: rf_pairs(ref_one_param_recurrence(fam, 10)[1:]),
                max(1, repeats // 5), read=rf_pairs)
    campaign_families = [DaryFamily(kind, d) for d in (1, 2) for kind in ("odd", "even")]
    compare(rows, "one_param_recurrence", 10, "4 campaign families",
            lambda: [recomputed(fam) for fam in campaign_families],
            lambda: [rf_pairs(ref_one_param_recurrence(fam, 10)[1:]) for fam in campaign_families],
            max(1, repeats // 5), read=lambda tables: [rf_pairs(t) for t in tables])
    rows += bench_alpha_proofs(repeats)
    kinds = DaryFamily("even", 2).kinds
    spectra = label_spectra(kinds, 7, "max")
    compare(rows, "level_rows", 8, "even d=2, j <= 3",
            lambda: [list(r.coeffs) for j, r in sorted(level_rows(kinds, 1, 3, 8).items())
                     if j >= 0],
            lambda: [[sum((c for m, c in spec.items() if m <= j), Q(0)) for spec in spectra]
                     for j in range(4)], repeats)
    w = BinaryWeights.make(2, 1, 1, 1, 1)
    compare(rows, "alpha_recurrence", 30, "binary (2,1,1,1,1), n<=12",
            lambda: alpha_recurrence(w.kinds, *rate_and_root(w.kinds, 30), 12),
            lambda: ref_binary_alpha(w, 12, 30), repeats)
    compare(rows, "alpha_recurrence", 20, "ternary (1,2), n<=6",
            lambda: alpha_recurrence(TERNARY_1_2, *rate_and_root(TERNARY_1_2, 20), 6),
            lambda: ref_ternary_alpha(1, 2, 6, 20), repeats)
    return rows


TERNARY_1_2 = _ternary_kinds(Q(1), Q(2))


def first_series_mismatch(rec, clo):
    """The first n at which two series tables differ, or None."""
    return next((n for n, (a, b) in enumerate(zip(rec.values, clo.values), 1)
                 if not a.matches(b)), None)


def bench_alpha_proofs(repeats: int) -> list[dict]:
    """The closed decay coefficients that the binary/alpha-closed-forms and
    height/plane-trees checks prove in Q(X), against the series comparison
    those checks made before (recurrence and closed table, each solving its
    own root and rate, at the checks' orders)."""
    rows: list[dict] = []
    X = MultiPoly.var(("X",), "X")
    for vec, mode in (((0, 0, 1, 0, 0), "matched_closed"), ((0, 0, 0, 1, 1), "matched_closed"),
                      ((0, 0, 0, 0, 1), "w3_closed")):
        w = BinaryWeights.make(*vec)
        compare(rows, "alpha_proof", 12, f"binary ({','.join(map(str, vec))})",
                lambda: _first_unproved(w.kinds, _CLOSED_PARTS[mode](w, X, None, 12)),
                lambda: first_series_mismatch(binary_alpha(w, "recurrence", 12, 30),
                                              binary_alpha(w, mode, 12, 30)), repeats)
    kinds = _height_kinds(Q(0), Q(0))
    compare(rows, "alpha_proof", 8, "height (0,0)",
            lambda: _first_unproved(kinds, _height_parts(Q(0), X, None, 8)),
            lambda: first_series_mismatch(height_alpha(0, 0, "closed", 8, 20),
                                          height_alpha(0, 0, "recurrence", 8, 20)), repeats)
    return rows


def quadratic_root(c0: Series, c1: Series, c2: Series) -> Series:
    """The root of c0 + c1 X + c2 X^2 vanishing at z=0, by Newton's method."""
    return newton_solve(SeriesPoly.make([c0, c1, c2]), 0)


def ternary_x_newton(order: int) -> Series:
    """The ternary root at (v1, v2) = (1, 2) as it was solved before ``char_factor``."""
    z, one = Series.z(order), Series.one(order)
    t2 = tree_root(TERNARY_1_2, order) ** 2
    return quadratic_root(z * (t2 + 1), z * (t2 + 2) - one, z * (t2 + 1))


def lockstep_x_newton(order: int) -> Series:
    z, one = Series.z(order), Series.one(order)
    return quadratic_root(z * 2, z * 4 - one, z * 2)


def bench_char_factor(repeats: int) -> list[dict]:
    """``char_factor`` per family, through ``family_base`` on its kind list, against the form
    it replaced."""
    rows: list[dict] = []
    w = BinaryWeights.make(2, 1, 1, 1, 1)
    even2 = DaryFamily("even", 2)
    for order in (30, 100):
        compare(rows, "char_factor", order, "binary (2,1,1,1,1)",
                lambda: rate_and_root(w.kinds, order)[0],
                lambda: _binary_x_radical(w, order), repeats)
        compare(rows, "char_factor", order, "height (1,2)",
                lambda: rate_and_root(_height_kinds(Q(1), Q(2)), order)[0],
                lambda: _height_x_rational(1, 2, tree_root(_height_kinds(Q(1), Q(2)), order)),
                repeats)
        compare(rows, "char_factor", order, "ternary (1,2)",
                lambda: rate_and_root(TERNARY_1_2, order)[0],
                lambda: ternary_x_newton(order), repeats)
        compare(rows, "char_factor", order, "lock-step X", lambda: lockstep_x(order),
                lambda: lockstep_x_newton(order), repeats)
        compare(rows, "char_factor", order, "even d=2 (c=3)",
                lambda: family_base(even2.kinds, order)[0],
                lambda: hensel_factor_pair(*char_poly(even2, order))[0][:-1], repeats,
                read=lambda sf: [e if k % 2 == 0 else -e
                                 for k, e in enumerate(sf.elementary, 1)][::-1])
    return rows


def cut_entries(entries: dict, order: int) -> dict:
    """Each entry's coordinates, cut to the table's order, those that vanish there dropped."""
    cut = {index: {m: s.truncate(order) for m, s in e.coeffs.items()}
           for index, e in entries.items()}
    return {index: {m: s for m, s in coords.items() if not s.is_zero()}
            for index, coords in cut.items()}


def closed_family_check() -> list:
    """The binary/one-param-family check's proofs, one per weight vector."""
    out = []
    for vec in ((0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0)):
        w = BinaryWeights.make(*vec)
        out.append(level_identity(w.kinds, *closed_family_rows(w)))
    return out


def one_param_check() -> list:
    """The dary/one-param-identity check's proofs, one per family."""
    return [level_identity(fam.kinds, *one_param_rows(fam)) for fam in _DARY_FAMILIES]


def bench_tables(repeats: int) -> list[dict]:
    """The d-ary expansion table and its level sums, against the first-written
    loops, and the closed-family proofs."""
    rows: list[dict] = []
    fam, bound, order = DaryFamily("even", 2), 3, 15
    seeds = main_equation_seeds(fam, bound, order)
    compare(rows, "dary_alpha_general", order, "even d=2, bound 3",
            lambda: dary_alpha_general(fam, bound, seeds, order),
            lambda: cut_entries(ref_alpha_general(fam, bound, seeds, order), order),
            max(1, repeats // 5), read=lambda table: cut_entries(table.entries, order))
    for fam in (DaryFamily("even", 2), DaryFamily("odd", 2)):
        # a fresh table per run: the algebra caches the root powers a run builds
        seeds, levels = main_equation_seeds(fam, bound, order), rho_levels(fam)
        compare(rows, "rho_series", order,
                f"{fam.kind} d={fam.d}, levels {levels[0]}-{levels[-1]}",
                lambda table: [rho_series(table, j, order) for j in levels],
                lambda table: [ref_rho_series(table, j, order) for j in levels], repeats,
                setup=lambda: dary_alpha_general(fam, bound, seeds, order))
    for check, coeffs in ((closed_family_check, "3 campaign weights, every level"),
                          (one_param_check, "5 d-ary families, every level")):
        if not all(check()):
            raise AssertionError(f"a level identity does not hold ({coeffs})")
        rows.append({"op": "level_identity", "order": "-", "coeffs": coeffs,
                     "core_us": round(timed_us(check, repeats), 1)})
    return rows


def bench_cache(repeats: int) -> list[dict]:
    """A cache hit on the stored text against parsing the entry and exporting it again."""
    rows: list[dict] = []
    w = BinaryWeights.make(Q(1, 2), Q(1, 3), Q(2, 3), Q(1, 5), Q(3, 7))
    with tempfile.TemporaryDirectory() as tmp:
        cache = SeriesCache(tmp)
        for order in (30, 200):
            key = f"binary-T-{order}"
            path = cache.put(key, export_series(tree_root(w.kinds, order), "json"))
            for fmt in ("json", "csv"):
                compare(rows, "cache_hit", order, f"binary T, {fmt}",
                        lambda: reformat(cache.get(key, order), fmt),
                        lambda: export_series(import_series(path.read_text()), fmt), repeats)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="BENCH_series.json", help="output JSON path")
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()
    rows = (bench(args.repeats, args.seed) + bench_layers(args.repeats, args.seed)
            + bench_recurrences(args.repeats) + bench_tables(args.repeats)
            + bench_cache(args.repeats))
    report = {
        "benchmark": "exact-ring microbenchmark (scripts/bench_series.py)",
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
        print(f"{row['op']:<20} {row['coeffs']:<19} {row['order']:>4} "
              f"{row['core_us']:>10.1f} us {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
