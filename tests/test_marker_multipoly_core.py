"""The integer marker, multipoly and walker-DP cores against plain-Fraction references.

The references below are the textbook algorithms on Fractions: schoolbook
products over dicts of marker slices or exponent vectors, and value
iteration over dicts of gap states.  The cores must agree with them entry
for entry, including negative marker exponents, empty slices, mixed
denominators, order 1 and zero marks.
"""

import itertools
import operator
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees.marker import MarkerSeries
from embtrees.multipoly import MultiPoly, RationalFunction
from embtrees.series import Series
from embtrees.walkers import (
    QUARTER_PLANE_STEPS,
    lockstep_dp,
    lockstep_dp_table,
    quarterplane_dp,
    randomturn_dp,
    randomturn_dp_table,
)

# -- the reference ----------------------------------------------------------


def clean(d):
    return {p: c for p, c in d.items() if c}


def ref_marker_mul(a, b):
    n = min(len(a), len(b))
    out = [{} for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            for pa, ca in a[i].items():
                for pb, cb in b[j].items():
                    out[i + j][pa + pb] = out[i + j].get(pa + pb, Q(0)) + ca * cb
    return [clean(d) for d in out]


def ref_marker_combine(a, b, sign):
    n = min(len(a), len(b))
    out = []
    for da, db in zip(a[:n], b[:n]):
        d = dict(da)
        for p, c in db.items():
            d[p] = d.get(p, Q(0)) + sign * c
        out.append(clean(d))
    return out


def ref_poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Q(0)) + ca * cb
    return clean(out)


def ref_lockstep_table(u, w, order):
    """Value iteration over gap states with the lock-step rules spelt out."""
    band = order + 2
    states = [(a, b) for a in range(band + 1) for b in range(band + 1)]

    def moves(a, b):
        for m1, m2, m3 in itertools.product((-1, 1), repeat=3):
            weight = Q(1)
            legal = True
            # the leading pair may share down-steps, the trailing pair up-steps
            for gap, lo, hi, share in ((a, m1, m2, -1), (b, m2, m3, 1)):
                if gap == 0 and (lo, hi) != (-1, 1):
                    if lo == hi == share:
                        weight *= w
                    else:
                        legal = False
            na, nb = a + (m2 - m1) // 2, b + (m3 - m2) // 2
            if legal and na >= 0 and nb >= 0:
                yield min(na, band), min(nb, band), weight * u ** ((na == 0) + (nb == 0))

    table = [{s: Q(1) for s in states}]
    for _ in range(1, order):
        prev = table[-1]
        table.append({s: sum((wt * prev[(x, y)] for x, y, wt in moves(*s)), Q(0))
                      for s in states})
    return table


def ref_randomturn_table(steps, boundary, order):
    choices = (1, -1) if steps == "dyck" else (1, 0, -1)
    floor = 1 if boundary == "vicious" else 0
    band = order + 2
    states = [(a, b) for a in range(floor, band + 1) for b in range(floor, band + 1)]

    def dests(a, b):
        for s in choices:
            for na, nb in ((a - s, b), (a + s, b - s), (a, b + s)):
                if na >= floor and nb >= floor:
                    yield min(na, band), min(nb, band)

    table = [{s: Q(1) for s in states}]
    for _ in range(1, order):
        prev = table[-1]
        table.append({s: sum((prev[d] for d in dests(*s)), Q(0)) for s in states})
    return table


def ref_quarterplane(model, i, j, order):
    """Walks from (i, j) counted on the whole box reachable in order steps."""
    box = [(x, y) for x in range(i + order + 1) for y in range(j + order + 1)]
    values = {p: Q(1) for p in box}
    out = [Q(1)]
    for _ in range(1, order):
        values = {(x, y): sum((values.get((x + dx, y + dy), Q(0))
                               for dx, dy in QUARTER_PLANE_STEPS[model]), Q(0))
                  for x, y in box}
        out.append(values[(i, j)])
    return out


# -- strategies -------------------------------------------------------------

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
wide = st.builds(Q, st.integers(-(2**70), 2**70), st.sampled_from([1, 2, 3, 7, 2**61 - 1]))
coeff = st.one_of(small, small, wide)
slices = st.dictionaries(st.integers(-5, 5), coeff, max_size=4)  # empty slices included


@st.composite
def marker_lists(draw, min_size=1, max_size=9):
    n = draw(st.integers(min_size, max_size))
    return [clean(d) for d in draw(st.lists(slices, min_size=n, max_size=n))]


def unit_head(a, p0, c0):
    return [{p0: c0}] + a[1:]


def poly_terms(nv, max_exp=6, max_size=8):
    exps = st.tuples(*[st.integers(0, max_exp)] * nv)
    return st.dictionaries(exps, coeff, max_size=max_size).map(clean)


# -- marker series -----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(marker_lists(), marker_lists(), small)
def test_marker_ring_operations_match_reference(a, b, q):
    ma, mb = MarkerSeries(a), MarkerSeries(b)
    with pytest.raises(TypeError):  # a module over Series: no product of two marker series
        ma * mb
    assert list((ma + mb).coeffs) == ref_marker_combine(a, b, 1)
    assert list((ma - mb).coeffs) == ref_marker_combine(a, b, -1)
    assert list((-ma).coeffs) == [{p: -c for p, c in d.items()} for d in a]
    assert list((ma * q).coeffs) == [clean({p: c * q for p, c in d.items()}) for d in a]
    assert ma.is_zero() == (not any(a))
    for power in range(-6, 7):
        assert list(ma.extract(power).coeffs) == [d.get(power, Q(0)) for d in a]
    assert list(ma.at_one().coeffs) == [sum(d.values(), Q(0)) for d in a]


@settings(max_examples=10, deadline=None)
@given(st.integers(20, 30), st.data())
def test_long_marker_products_match_reference(n, data):
    # wide marker windows and long series, times a z-series: the series case of the reference
    a = data.draw(marker_lists(min_size=n, max_size=n))
    cs = data.draw(st.lists(coeff, min_size=n, max_size=n))
    lifted = [clean({0: c}) for c in cs]
    assert list((MarkerSeries(a) * Series(cs)).coeffs) == ref_marker_mul(a, lifted)


@settings(max_examples=60, deadline=None)
@given(marker_lists(), st.lists(coeff, min_size=1, max_size=9), st.integers(-4, 4))
def test_marker_series_bridges(a, cs, power):
    s = Series(cs)
    lifted = MarkerSeries.from_series(s).shift_marker(power)
    assert list(lifted.coeffs) == [clean({power: c}) for c in cs]
    assert list(MarkerSeries.from_series(s).coeffs) == [clean({0: c}) for c in cs]
    assert list((MarkerSeries(a) * s).coeffs) == ref_marker_mul(a, [clean({0: c}) for c in cs])
    assert MarkerSeries(a) * s == s * MarkerSeries(a)
    assert list(MarkerSeries(a).shift_marker(power).coeffs) == [
        {p + power: c for p, c in d.items()} for d in a
    ]


def test_marker_order_one_and_equality():
    a = MarkerSeries([{-2: Q(1, 2), 3: Q(-4, 6)}])
    assert a.order == 1 and (a * Series([2])).coeffs == ({-2: Q(1), 3: Q(-4, 3)},)
    # equal series built differently compare and hash alike
    b = MarkerSeries([{-2: Q(2, 4), 3: Q(-2, 3)}, {5: Q(1)}]).truncate(1)
    assert a == b and hash(a) == hash(b)
    assert (a - b).is_zero() and (a - b) == MarkerSeries.zero(1)
    assert MarkerSeries([{1: Q(1)}, {}]) != MarkerSeries([{1: Q(1)}])
    assert MarkerSeries([{1: Q(1)}, {}]).matches(MarkerSeries([{1: Q(1)}]))
    assert a.support(0) == (-2, 3) and MarkerSeries.zero(3).support(1) is None


# -- multivariate polynomials -------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([1, 3]))
def test_poly_products_match_reference(data, nv):
    variables = ("X", "lam", "Y")[:nv]
    a = data.draw(poly_terms(nv, max_exp=40 if nv == 1 else 6))
    b = data.draw(poly_terms(nv, max_exp=40 if nv == 1 else 6))
    pa, pb = MultiPoly(variables, a), MultiPoly(variables, b)
    assert (pa * pb).terms == ref_poly_mul(a, b)
    total = dict(a)
    for e, c in b.items():
        total[e] = total.get(e, Q(0)) - c
    assert (pa - pb).terms == clean(total)
    assert (pa * pb) == (pb * pa) and hash(pa * pb) == hash(pb * pa)


# Products whose box of exponents is full and products whose box is
# mostly empty: the full cube (box 5^3 = 125 cells, 27 x 27 pairs), or two
# long diagonal polynomials (lam = Y on every term, as in the d-ary
# one-parameter residuals; 79 x 5 x 5 cells, 90 x 90 pairs), each times
# itself and times a short polynomial.
CUBE = {e: Q(sum(e) - 2, 1 + e[0]) for e in itertools.product(range(3), repeat=3)}
DIAGONAL = {(x, k, k): Q(x - k + 1, 3) for x in range(40) for k in range(3) if (x + k) % 4}


@pytest.mark.parametrize("a,b", [
    (CUBE, CUBE),
    (CUBE, {(2, 0, 1): Q(5), (0, 2, 2): Q(-1, 7)}),
    (DIAGONAL, {(0, 0, 0): Q(1), (1, 1, 1): Q(-2), (0, 2, 2): Q(1, 2)}),
    (DIAGONAL, DIAGONAL),
])
def test_poly_products_on_both_sides_of_the_box_cut(a, b):
    variables = ("X", "lam", "Y")
    assert (MultiPoly(variables, a) * MultiPoly(variables, b)).terms == ref_poly_mul(a, b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dense_three_variable_products_match_reference(data):
    terms = poly_terms(3, max_exp=2, max_size=27)
    a, b = data.draw(terms), data.draw(terms)
    variables = ("X", "lam", "Y")
    assert (MultiPoly(variables, a) * MultiPoly(variables, b)).terms == ref_poly_mul(a, b)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1, 3]))
def test_rational_function_equality_matches_cross_multiplication(data, nv):
    variables = ("X", "lam", "Y")[:nv]
    terms = poly_terms(nv).filter(bool)
    a, b, c = (data.draw(terms) for _ in range(3))
    pa, pb, pc = (MultiPoly(variables, t) for t in (a, b, c))
    # a/b = (a c)/(b c) always; a/b = c/b exactly when a = c
    assert RationalFunction(pa, pb).equals(RationalFunction(pa * pc, pb * pc))
    assert RationalFunction(pa, pb).equals(RationalFunction(pc, pb)) == (clean(a) == clean(c))
    assert RationalFunction(pa, pb).equals(RationalFunction(pc, pb)) == (
        ref_poly_mul(a, b) == ref_poly_mul(c, b))


# -- the operators every ring shares -------------------------------------------

scalars = st.one_of(st.integers(-5, 5), small)
POINTS = (Q(-1, 3), Q(1, 2), Q(3), Q(5, 7), Q(-9, 4))


def ref_eval(terms, x):
    return sum((c * x ** e for (e,), c in terms.items()), Q(0))


def ref_poly_plus(terms, q):
    out = dict(terms)
    out[(0,)] = out.get((0,), Q(0)) + q
    return clean(out)


def ref_powers(mul, one, base, k):
    out = one
    for _ in range(k):
        out = mul(out, base)
    return out


@settings(max_examples=60, deadline=None)
@given(marker_lists(), st.lists(coeff, min_size=1, max_size=9), scalars)
def test_sums_with_scalars_and_series_on_either_side(a, cs, q):
    ma, s = MarkerSeries(a), Series(cs)
    const = [clean({0: Q(q)})] + [{}] * (len(a) - 1)
    lifted = [clean({0: c}) for c in cs]
    cases = [
        (ma + q, a, const, 1), (q + ma, a, const, 1), (ma - q, a, const, -1), (q - ma, const, a, -1),
        (ma + s, a, lifted, 1), (s + ma, a, lifted, 1), (ma - s, a, lifted, -1), (s - ma, lifted, a, -1),
    ]
    for got, x, y, sign in cases:
        assert isinstance(got, MarkerSeries)
        assert list(got.coeffs) == ref_marker_combine(x, y, sign)
    head = [q] + [0] * (len(cs) - 1)
    assert list((s + q).coeffs) == list((q + s).coeffs) == [c + h for c, h in zip(cs, head)]
    assert list((s - q).coeffs) == [c - h for c, h in zip(cs, head)]
    assert list((q - s).coeffs) == [h - c for c, h in zip(cs, head)]


@settings(max_examples=40, deadline=None)
@given(poly_terms(1, max_exp=5, max_size=4), poly_terms(1, max_exp=5, max_size=4).filter(bool),
       scalars)
def test_poly_and_rational_function_operators(a, b, q):
    pa, pb = MultiPoly(("X",), a), MultiPoly(("X",), b)
    negated = {e: -c for e, c in a.items()}
    assert (pa + q).terms == (q + pa).terms == ref_poly_plus(a, q)
    assert (pa - q).terms == ref_poly_plus(a, -q)
    assert (q - pa).terms == ref_poly_plus(negated, q)
    rf = RationalFunction(pa, pb)
    for x in POINTS:
        va, vb = ref_eval(a, x), ref_eval(b, x)
        if vb == 0:
            continue
        r = va / vb
        cases = [(pa + rf, va + r), (rf + pa, r + va), (pa - rf, va - r), (rf - pa, r - va),
                 (rf + q, r + q), (q + rf, q + r), (rf - q, r - q), (q - rf, q - r)]
        for got, want in cases:
            assert isinstance(got, RationalFunction)
            assert ref_eval(got.num.terms, x) == want * ref_eval(got.den.terms, x)


@settings(max_examples=40, deadline=None)
@given(marker_lists(max_size=6), st.integers(-3, 3), small.filter(bool), st.integers(-3, 4))
def test_powers_on_every_ring(a, p0, c0, k):
    a = unit_head(a, p0, c0)
    ma = MarkerSeries(a)
    s = Series([c0] + [d.get(0, Q(0)) for d in a[1:]])
    terms = {(e,): c for e, c in enumerate(s.coeffs) if c}
    poly = MultiPoly(("X",), terms)
    if k < 0:  # only series and rational functions invert
        for x in (ma, MarkerSeries.from_series(s), poly):
            with pytest.raises(ValueError):
                x ** k
        assert s ** k * s ** -k == Series.one(len(a))
    else:
        if k:  # a marker series is a module over Series, with no positive powers
            with pytest.raises(TypeError):
                ma ** k
        assert (poly ** k).terms == ref_powers(ref_poly_mul, {(0,): Q(1)}, terms, k)
    got = RationalFunction(poly, MultiPoly.var(("X",), "X") + 2) ** k
    for x in POINTS:
        v = ref_eval(terms, x)
        if v or k >= 0:
            assert ref_eval(got.num.terms, x) == (v / (x + 2)) ** k * ref_eval(got.den.terms, x)


X_POLY = MultiPoly.var(("X",), "X")
SERIES, MARKER = Series([1, 2], 3), MarkerSeries([{1: Q(1)}, {-1: Q(2)}])


@pytest.mark.parametrize("x,other", [
    (SERIES, X_POLY), (MARKER, RationalFunction(X_POLY)), (X_POLY, SERIES),
    (RationalFunction(X_POLY), MARKER),
], ids=["series", "marker", "multipoly", "rational-function"])
def test_foreign_operands_raise_type_error(x, other):
    for foreign in (object(), 1.5, "1/2", other):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(x, foreign)
            with pytest.raises(TypeError):
                op(foreign, x)
        with pytest.raises(TypeError):
            x ** foreign


# -- walker dynamic programs ---------------------------------------------------

marks = st.one_of(st.just(Q(0)), st.fractions(min_value=0, max_value=3, max_denominator=7))


@settings(max_examples=12, deadline=None)
@given(marks, marks, st.integers(1, 10))
def test_lockstep_table_matches_reference(u, w, order):
    table = lockstep_dp_table(u, w, order)
    assert table == ref_lockstep_table(u, w, order)
    for i, j in ((0, 0), (0, 2), (3, 1)):
        start = u ** ((i == 0) + (j == 0))
        assert lockstep_dp(u, w, i, j, order) == [start * row[(i, j)] for row in table]


@pytest.mark.parametrize("u,w", [(0, 0), (1, 0), (0, Q(2, 3)), (Q(1, 2), Q(1, 3)), (Q(5, 3), 1)])
def test_lockstep_table_zero_and_scaled_marks(u, w):
    assert lockstep_dp_table(u, w, 10) == ref_lockstep_table(Q(u), Q(w), 10)


@pytest.mark.parametrize("steps", ["dyck", "motzkin"])
@pytest.mark.parametrize("boundary", ["vicious", "osculating"])
@pytest.mark.parametrize("order", [1, 2, 7, 10])
def test_randomturn_table_matches_reference(steps, boundary, order):
    ref = ref_randomturn_table(steps, boundary, order)
    assert randomturn_dp_table(steps, boundary, order) == ref
    for i, j in ((1, 1), (0, 2), (4, 3)):
        if boundary == "osculating" or min(i, j) >= 1:
            key = (min(i, order + 2), min(j, order + 2))  # gaps saturate at the band
            assert randomturn_dp(steps, boundary, i, j, order) == [row[key] for row in ref]


@pytest.mark.parametrize("model", ["S1", "S2"])
@pytest.mark.parametrize("order", [1, 2, 6, 10])
def test_quarterplane_matches_reference(model, order):
    for i, j in ((0, 0), (0, 3), (2, 1), (5, 5)):
        assert quarterplane_dp(model, i, j, order) == ref_quarterplane(model, i, j, order)


def test_order_zero_lists_and_tables():
    # lists have one entry per order (quarter-plane keeps its leading 1);
    # tables keep the n = 0 row
    assert lockstep_dp(Q(1, 2), Q(1, 3), 0, 1, 0) == []
    assert randomturn_dp("dyck", "osculating", 1, 1, 0) == []
    assert randomturn_dp("dyck", "vicious", 0, 1, 0) == []
    assert quarterplane_dp("S1", 1, 2, 0) == [1]
    assert lockstep_dp_table(Q(1, 2), Q(1, 3), 0) == ref_lockstep_table(Q(1, 2), Q(1, 3), 0)
    assert randomturn_dp_table("motzkin", "vicious", 0) == ref_randomturn_table("motzkin", "vicious", 0)
