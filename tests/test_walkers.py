from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embtrees import campaign
from embtrees import walkers as W
from embtrees.series import Series
from embtrees.walkers import (
    StarGF,
    WalkerModel,
    lockstep_dp,
    lockstep_dp_table,
    lockstep_refined,
    lockstep_star,
    lockstep_x,
    quarterplane_dp,
    quarterplane_gf,
    randomturn_dp,
    randomturn_dp_table,
    randomturn_gf,
    randomturn_x,
    walker_dp,
)


def ints(series):
    return [int(c) for c in series.coeffs]


def test_rate_equations():
    X = lockstep_x(25)
    z = Series.z(25)
    assert (X - z * (2 + 4 * X + X * X * 2)).is_zero()
    assert X[0] == 0
    for steps, (a, b, c) in (("dyck", (2, 2, 2)), ("motzkin", (2, 5, 2))):
        X = randomturn_x(steps, 25)
        z = Series.z(25)
        assert (X - z * (a + b * X + c * X * X)).is_zero()


def test_general_family_with_zero_parameters_is_free():
    # the star form T(1 - alpha X^i - alpha X^j - gamma X^(i+j)) with alpha = gamma = 0
    T, zero = W._lockstep_base(10)[1], Series.zero(10)
    star = lockstep_refined(0, 0, 3, 1, 10, parts=(T, [zero] * 4, [zero] * 7))
    assert star.series == T


def test_adapt_solutions():
    # the refined (alpha, gamma) at each boundary model's corner (u, w)
    one = Series.one(20)
    X = lockstep_x(20)
    assert W._refined_adapted(0, 0, X) == (one, -one)
    alpha, gamma = W._refined_adapted(1, 0, X)
    assert alpha.matches(X * 3 / (one + X * 2))
    assert gamma.matches(-(X * 3) / (one * 2 + X))
    alpha, gamma = W._refined_adapted(1, 1, X)
    assert alpha.matches(X * 2 / (one + X))
    assert gamma.matches(-X)


def test_vicious_vanishes_on_axes():
    for j in range(5):
        assert lockstep_star("vicious", 0, j, 12).series.is_zero()
        assert lockstep_star("vicious", j, 0, 12).series.is_zero()


def test_vicious_closed_form_is_product():
    X = lockstep_x(15)
    one = Series.one(15)
    T = W._lockstep_base(15)[1]
    for i, j in ((1, 1), (2, 3)):
        got = lockstep_star("vicious", i, j, 15).series
        assert got.matches(T * (one - X**i) * (one - X**j))


@pytest.mark.parametrize("boundary,marks", [
    ("vicious", (0, 0)), ("osculating", (1, 0)), ("updown", (1, 1)),
])
def test_lockstep_closed_equals_dp(boundary, marks):
    order = 16
    table = lockstep_dp_table(*marks, order)
    u = Q(marks[0])
    for i in range(5):
        for j in range(5):
            if boundary == "osculating" and (i, j) == (0, 0):
                continue
            closed = lockstep_star(boundary, i, j, order).series
            start = u ** ((i == 0) + (j == 0))
            assert list(closed.coeffs) == [start * table[n][(i, j)] for n in range(order)]


def test_osculating_triple_point_is_spec_defect():
    # A triple point admits no legal osculating move, so the true count is
    # the bare empty configuration; the adapted closed form extrapolates to
    # an alternating series there and is NOT a counting function.  Pinned
    # here so the excluded cell stays visible.
    dp = walker_dp(WalkerModel("lock_step", "dyck", "osculating"), 0, 0, 8)
    assert dp == [Q(1)] + [Q(0)] * 7
    closed = lockstep_star("osculating", 0, 0, 8).series
    assert list(closed.coeffs) == [Q((-1) ** n) for n in range(8)]


def test_updown_triple_point_matches():
    dp = walker_dp(WalkerModel("lock_step", "dyck", "updown"), 0, 0, 12)
    closed = lockstep_star("updown", 0, 0, 12).series
    assert list(closed.coeffs) == dp


@pytest.mark.parametrize("marks", [(Q(1, 2), Q(1, 3)), (Q(2), Q(1)), (Q(3, 7), Q(0))])
def test_refined_equals_dp_at_sampled_marks(marks):
    u, w = marks
    order = 12
    table = lockstep_dp_table(u, w, order)
    for i in range(4):
        for j in range(4):
            if (i, j) == (0, 0):
                continue
            closed = lockstep_refined(u, w, i, j, order).series
            start = u ** ((i == 0) + (j == 0))
            assert list(closed.coeffs) == [start * table[n][(i, j)] for n in range(order)]


marks = st.fractions(min_value=0, max_value=3, max_denominator=5)
cells = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda c: c != (0, 0))


@settings(max_examples=60, deadline=None)
@given(marks, marks, cells, st.integers(1, 10))
def test_refined_closed_form_matches_dp_at_random_marks(u, w, cell, order):
    # the triple point (0, 0) is the documented defect of the adapted form
    i, j = cell
    assert list(lockstep_refined(u, w, i, j, order).series.coeffs) == lockstep_dp(
        u, w, i, j, order
    )


def test_refined_corners_reproduce_boundary_models():
    # each model's adapted (alpha, gamma), written out: T(1 - alpha X^i - alpha X^j - gamma X^(i+j))
    X, T, one = lockstep_x(12), W._lockstep_base(12)[1], Series.one(12)
    for (u, w), boundary, alpha, gamma in (
        ((0, 0), "vicious", one, -one),
        ((1, 0), "osculating", X * 3 / (one + X * 2), -(X * 3) / (one * 2 + X)),
        ((1, 1), "updown", X * 2 / (one + X), -X),
    ):
        for i in range(4):
            for j in range(4):
                want = T * (one - alpha * X**i - alpha * X**j - gamma * X ** (i + j))
                assert lockstep_refined(u, w, i, j, 12).series == want
                assert lockstep_star(boundary, i, j, 12).series == want


def test_star_symmetry():
    for i in range(4):
        for j in range(4):
            assert (
                lockstep_refined(Q(1, 2), Q(1, 3), i, j, 10).series
                == lockstep_refined(Q(1, 2), Q(1, 3), j, i, 10).series
            )
            assert lockstep_dp(Q(1, 2), Q(1, 3), i, j, 8) == lockstep_dp(
                Q(1, 2), Q(1, 3), j, i, 8
            )


@pytest.mark.parametrize("steps", ["dyck", "motzkin"])
@pytest.mark.parametrize("boundary", ["vicious", "osculating"])
def test_randomturn_closed_equals_dp(steps, boundary):
    order = 16
    table = randomturn_dp_table(steps, boundary, order)
    for i in range(5):
        for j in range(5):
            closed = randomturn_gf(steps, boundary, i, j, order).series
            if boundary == "vicious" and (i < 1 or j < 1):
                assert closed.is_zero()
            else:
                assert list(closed.coeffs) == [table[n][(i, j)] for n in range(order)]


def test_randomturn_osculating_shift():
    a = randomturn_gf("motzkin", "osculating", 1, 2, 12).series
    b = randomturn_gf("motzkin", "vicious", 2, 3, 12).series
    assert a == b


def test_randomturn_radical_forms():
    order = 24
    z = Series.z(order)
    one = Series.one(order)
    dyck = randomturn_gf("dyck", "osculating", 0, 0, order).series
    ref = (one - z * 2 - ((one + z * 2) * (one - z * 6)).sqrt()) / (z * z * 8)
    assert dyck.matches(ref)
    motzkin = randomturn_gf("motzkin", "osculating", 0, 0, order).series
    refm = (one - z * 5 - ((one - z) * (one - z * 9)).sqrt()) / (z * z * 8)
    assert motzkin.matches(refm)


def test_quarterplane_origin_is_motzkin():
    assert ints(quarterplane_gf("S1", 0, 0, 8)) == [1, 1, 2, 4, 9, 21, 51, 127]


def test_quarterplane_single_first_step():
    assert quarterplane_gf("S1", 0, 0, 3)[1] == 1  # only the up step stays


@pytest.mark.parametrize("model", ["S1", "S2"])
def test_quarterplane_closed_equals_dp(model):
    for i in range(3):
        for j in range(3):
            closed = quarterplane_gf(model, i, j, 14)
            assert list(closed.coeffs) == quarterplane_dp(model, i, j, 14)


def test_six_step_model_is_doubled_three_step():
    s1 = quarterplane_gf("S1", 2, 1, 15)
    s2 = quarterplane_gf("S2", 2, 1, 15)
    assert list(s2.coeffs) == [c * 2**n for n, c in enumerate(s1.coeffs)]


def test_six_step_model_is_randomturn_osculating():
    for i in range(3):
        for j in range(3):
            assert quarterplane_gf("S2", i, j, 12).matches(
                randomturn_gf("dyck", "osculating", i, j, 12).series
            )


def test_model_validation():
    with pytest.raises(ValueError):
        WalkerModel("lock_step", "motzkin", "vicious")
    with pytest.raises(ValueError):
        WalkerModel("random_turn", "dyck", "updown")
    with pytest.raises(ValueError):
        WalkerModel("lock_step", "dyck", "refined")
    with pytest.raises(ValueError):
        WalkerModel("random_turn", "dyck", "refined", Q(1, 2), Q(1, 3))
    star = StarGF(1, 2, Series.one(3))
    assert (star.i, star.j) == (1, 2)


NEGATIVE_GAP_CALLS = [
    lambda i, j: lockstep_star("vicious", i, j, 6),
    lambda i, j: lockstep_refined(Q(1, 2), Q(1, 3), i, j, 6),
    lambda i, j: randomturn_gf("dyck", "vicious", i, j, 6),
    lambda i, j: randomturn_gf("motzkin", "osculating", i, j, 6),
    lambda i, j: quarterplane_gf("S1", i, j, 6),
    lambda i, j: lockstep_dp(1, 0, i, j, 6),
    lambda i, j: lockstep_dp(1, 0, i, j, 0),
    lambda i, j: randomturn_dp("dyck", "vicious", i, j, 6),
    lambda i, j: quarterplane_dp("S2", i, j, 6),
    lambda i, j: walker_dp(WalkerModel("lock_step", "dyck", "updown"), i, j, 6),
]


@pytest.mark.parametrize("call", NEGATIVE_GAP_CALLS)
@pytest.mark.parametrize("gaps", [(-1, 2), (2, -1), (-2, -2)])
def test_a_negative_gap_is_refused(call, gaps):
    """Read from the end of a power list, a negative gap would give a wrong series."""
    with pytest.raises(ValueError, match="non-negative"):
        call(*gaps)


# -- integer DP columns ------------------------------------------------------

STAR_CELLS = [(i, j) for i in range(5) for j in range(5)]


@settings(max_examples=25, deadline=None)
@given(marks, marks, st.integers(2, 12))
@example(Q(0), Q(1, 3), 9)
@example(Q(1), Q(0), 9)
@example(Q(0), Q(0), 2)
def test_lockstep_columns_equal_the_table_view(u, w, order):
    # the columns fill only the cone of the cells; the table fills every
    # state up to the band, so the two share nothing but the rules
    columns = W._lockstep_columns(u, w, STAR_CELLS, order)
    table = lockstep_dp_table(u, w, order)
    for i, j in STAR_CELLS:
        start = u ** ((i == 0) + (j == 0))
        assert list(columns[i, j].coeffs) == [start * table[n][(i, j)] for n in range(order)]
        assert list(columns[i, j].coeffs) == lockstep_dp(u, w, i, j, order)


@pytest.mark.parametrize("steps", ["dyck", "motzkin"])
@pytest.mark.parametrize("boundary", ["vicious", "osculating"])
def test_randomturn_columns_equal_the_table_view(steps, boundary):
    order = 11
    columns = W._randomturn_columns(steps, boundary, STAR_CELLS, order)
    table = randomturn_dp_table(steps, boundary, order)
    for i, j in STAR_CELLS:
        want = ([Q(0)] * order if boundary == "vicious" and min(i, j) < 1
                else [table[n][(i, j)] for n in range(order)])
        assert list(columns[i, j].coeffs) == want == randomturn_dp(steps, boundary, i, j, order)


@pytest.mark.parametrize("rows", [
    lambda radii: W._lockstep_rows(Q(2, 3), Q(1, 2), radii)[:2],
    lambda radii: W._randomturn_rows("motzkin", "vicious", radii),
    lambda radii: W._randomturn_rows("dyck", "osculating", radii),
])
def test_cone_rows_are_exact_where_filled(rows):
    # row n of the cone, on every state it fills, equals the row of a DP on
    # a band wide enough that saturation reaches no state read
    order, m = 9, 3
    radii = W._cone([(m, m)], order)
    cone_index, cone_rows = rows(radii)
    full_index, full_rows = rows([radii[0] + order] * order)
    for n, (cone, full) in enumerate(zip(cone_rows, full_rows)):
        assert len(cone) == len([s for s in cone_index if max(s) <= radii[n]])
        for state, k in cone_index.items():
            if max(state) <= radii[n]:
                assert cone[k] == full[full_index[state]], (n, state)


@pytest.mark.parametrize("check,detail", [
    ("walkers/lock-step", "vicious at (1, 2)"),
    ("walkers/refined", "marks ('1/2', '1/3') at (1, 2)"),
    ("walkers/random-turn", "dyck vicious at (1, 2)"),
    ("walkers/quarter-plane", "S1 at (1, 2)"),
])
def test_one_changed_dp_entry_fails_the_check(monkeypatch, check, detail):
    original = W._gap_rows

    def bumped(transitions, floor, radii):
        index, rows = original(transitions, floor, radii)

        def changed():
            for n, row in enumerate(rows):
                if n == 3:
                    row = list(row)
                    row[index[1, 2]] += 1
                yield row

        return index, changed()

    assert campaign.run_check(check).status == "pass"
    monkeypatch.setattr(W, "_gap_rows", bumped)
    result = campaign.run_check(check)
    assert (result.status, result.detail) == ("fail", detail)
