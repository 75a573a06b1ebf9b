from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees import paths
from embtrees.kernel import tree_root
from embtrees.marker import MarkerSeries
from embtrees.paths import (
    MeanderCheck,
    MeanderGF,
    excursion_gf,
    meander_dp,
    meander_gf,
    verify_meander_closed_form,
)
from embtrees.series import Series
from embtrees.steps import StepSet, parse_step_set

DYCK = StepSet.make([(-1, 1), (1, 1)])
MOTZKIN = StepSet.make([(-1, 1), (0, 1), (1, 1)])


def ints(series):
    return [int(c) for c in series.coeffs]


def test_parse_step_set():
    s = parse_step_set("-1:1, 1:2/3")
    assert s.steps == ((-1, Q(1)), (1, Q(2, 3)))
    assert s.max_down == 1 and s.max_up == 1
    with pytest.raises(ValueError):
        parse_step_set("")
    with pytest.raises(ValueError):
        parse_step_set("1;2")


def walks_total(steps: StepSet, order: int) -> Series:
    """Free walks from level 0 ending anywhere: the tree root of the step set's kind list."""
    return tree_root(steps.kinds, order)


def test_walks_total():
    assert DYCK.kinds == [(1, (-1,)), (1, (1,))]
    assert ints(walks_total(DYCK, 5)) == [1, 2, 4, 8, 16]
    assert ints(walks_total(MOTZKIN, 5)) == [1, 3, 9, 27, 81]
    weighted = StepSet.make([(-1, 2), (1, 3)])
    assert ints(walks_total(weighted, 4)) == [1, 5, 25, 125]


def test_dyck_meander_counts():
    gf = meander_gf(DYCK, 0, 7)
    assert ints(gf.plain) == [1, 1, 2, 3, 6, 10, 20]


def test_motzkin_meander_first_step():
    # from the floor only the flat and the up step are available
    assert meander_gf(MOTZKIN, 0, 3).plain[1] == 2


def test_meander_far_from_floor_is_free():
    gf = meander_gf(DYCK, 12, 12)
    assert gf.plain.matches(walks_total(DYCK, 12))


def test_dyck_excursions_are_aerated_catalan():
    assert ints(excursion_gf(DYCK, 0, 9)) == [1, 0, 1, 0, 2, 0, 5, 0, 14]


def test_motzkin_excursions():
    assert ints(excursion_gf(MOTZKIN, 0, 7)) == [1, 1, 2, 4, 9, 21, 51]


def test_deep_drop_excursion():
    s = StepSet.make([(-2, 1), (1, 1)])
    exc = excursion_gf(s, 0, 7)
    assert exc[3] == 1  # the single path up, up, down-two
    assert ints(exc) == [1, 0, 0, 1, 0, 0, 3]


def test_dp_initial_state():
    totals, table = meander_dp(MOTZKIN, 4, 3)
    assert totals[0] == 1 and table[0] == {4: Q(1)}


def test_dp_first_step_weights():
    weighted = StepSet.make([(-1, Q(5)), (1, Q(1, 3))])
    totals, _ = meander_dp(weighted, 0, 2)
    assert totals[1] == Q(1, 3)  # the down step is blocked at the floor
    totals1, _ = meander_dp(weighted, 1, 2)
    assert totals1[1] == Q(16, 3)


@pytest.mark.parametrize(
    "spec",
    ["-1:1,1:1", "-1:1,0:1,1:1", "-2:1,-1:2,1:1,3:1", "-1:2,1:3", "-3:1,2:1/2",
     "-2:1,2:1", "-1:1,3:5"],
)
def test_meander_closed_form_against_dp(spec):
    result = verify_meander_closed_form(parse_step_set(spec), 5, 25)
    assert result.ok, result


def _tampered_meanders(monkeypatch, plain=None, marked=None):
    """meander_gf with ``plain`` and ``marked`` added at start level 2."""
    original = paths.meander_gf

    def tampered(steps, level, order, *, parts=None):
        gf = original(steps, level, order, parts=parts)
        if level != 2:
            return gf
        return MeanderGF(level, gf.plain + (plain or Series.zero(order)),
                         gf.marked + (marked or MarkerSeries.zero(order)))

    monkeypatch.setattr(paths, "meander_gf", tampered)


def test_mismatch_in_an_endpoint_slice_is_located(monkeypatch):
    # weight moved between two end levels at z^4: the plain series and the
    # marker at 1 are unchanged, one endpoint slice is not
    _tampered_meanders(monkeypatch, marked=MarkerSeries([{}] * 4 + [{1: 1, 3: -1}], 10))
    assert verify_meander_closed_form(DYCK, 5, 10) == MeanderCheck(False, (2, 4))


def test_mismatch_in_the_plain_series_is_located(monkeypatch):
    _tampered_meanders(monkeypatch, plain=Series([0, 0, 0, Q(1, 2)], 10))
    assert verify_meander_closed_form(DYCK, 5, 10) == MeanderCheck(False, (2, 3))


def test_marked_specializes_to_plain():
    gf = meander_gf(MOTZKIN, 2, 15)
    assert gf.marked.at_one().matches(gf.plain)


def test_marked_slices_are_dp_columns():
    steps = parse_step_set("-2:1,1:1,3:1")
    gf = meander_gf(steps, 1, 12)
    _, table = meander_dp(steps, 1, 12)
    for n in range(12):
        assert gf.marked.coeffs[n] == table[n]


def test_endpoint_support_bounds():
    steps = parse_step_set("-2:1,1:1,3:1")
    gf = meander_gf(steps, 2, 10)
    for n in range(10):
        support = gf.marked.support(n)
        if support is not None:
            assert support[0] >= 0
            assert support[1] <= 2 + 3 * n


def test_monotone_in_start_level():
    prev = None
    for j in range(8):
        plain = meander_gf(DYCK, j, 10).plain
        if prev is not None:
            assert all(plain[n] >= prev[n] for n in range(10))
        prev = plain


@st.composite
def step_sets(draw):
    """Two-sided step sets: jumps in [-3, 3], positive rational weights."""
    down = draw(st.integers(-3, -1))
    up = draw(st.integers(1, 3))
    jumps = {down, up} | set(draw(st.lists(st.integers(-3, 3), max_size=3)))
    weight = st.fractions(min_value=Q(1, 5), max_value=3, max_denominator=5)
    return StepSet.make([(b, draw(weight)) for b in sorted(jumps)])


@settings(max_examples=60, deadline=None)
@given(step_sets(), st.integers(0, 3), st.integers(1, 12))
def test_meander_closed_form_matches_dp_on_random_step_sets(steps, level, order):
    gf = meander_gf(steps, level, order)
    totals, table = meander_dp(steps, level, order)
    assert list(gf.plain.coeffs) == totals
    assert list(gf.marked.coeffs) == table


@settings(max_examples=40, deadline=None)
@given(step_sets(), st.integers(0, 3), st.integers(1, 12))
def test_dp_grids_equal_the_fraction_view(steps, level, order):
    # the check compares grids structurally, so they must be the canonical
    # ones that the Fraction constructors build
    totals, table = meander_dp(steps, level, order)
    plain, marked = paths._meander_dp_series(steps, level, order)
    assert plain == Series(totals)
    assert marked == MarkerSeries(table, order)


@pytest.mark.parametrize("order", [0, -2])
def test_dp_below_order_one_keeps_its_start_row(order):
    assert meander_dp(MOTZKIN, 2, order) == ([Q(1)], [{2: Q(1)}])


def test_meander_gf_refuses_levels_beyond_its_parts():
    parts = paths._meander_parts(MOTZKIN, 8, 3)
    assert meander_gf(MOTZKIN, 3, 8, parts=parts) == meander_gf(MOTZKIN, 3, 8)
    with pytest.raises(ValueError, match="up to 3"):
        meander_gf(MOTZKIN, 4, 8, parts=parts)
