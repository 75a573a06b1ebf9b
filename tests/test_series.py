from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees.errors import DivisionByNonUnit, NonUnitConstantTerm
from embtrees.marker import MarkerSeries
from embtrees.series import Series

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=5
)
series8 = st.lists(rationals, min_size=8, max_size=8).map(Series)
unit_series8 = st.tuples(
    st.fractions(min_value=Q(1, 3), max_value=6, max_denominator=4),
    st.lists(rationals, min_size=7, max_size=7),
).map(lambda t: Series([t[0]] + t[1]))


def ints(s):
    return [int(c) for c in s.coeffs]


def test_difference_of_squares():
    one = Series.one(6)
    z = Series.z(6)
    assert ((one + z) * (one - z)) == one - z * z


def test_self_subtraction_is_zero():
    s = Series([1, 4, 9, 16], 4)
    assert (s - s).is_zero()


def test_div_geometric():
    g = Series.one(8) / (Series.one(8) - Series.z(8))
    assert ints(g) == [1] * 8


def test_div_powers_of_three():
    g = Series.one(4) / (Series.one(4) - Series.z(4) * 3)
    assert ints(g) == [1, 3, 9, 27]


def test_div_valuation_cancellation():
    num = Series([0, 1, 1], 3)  # z + z^2
    den = Series([0, 1], 3)  # z
    quo = num / den
    assert quo.order == 2 and ints(quo) == [1, 1]


def test_div_by_non_unit_raises():
    with pytest.raises(DivisionByNonUnit):
        Series.one(5) / Series.z(5)
    with pytest.raises(DivisionByNonUnit):
        Series.one(5) / Series.zero(5)


def test_sqrt_catalan():
    # (1 - sqrt(1-4z)) / (2z) is the solution of T = 1 + z T^2
    one = Series.one(9)
    z = Series.z(9)
    cat = (one - (one - z * 4).sqrt()) / (z * 2)
    assert ints(cat) == [1, 1, 2, 5, 14, 42, 132, 429]


def test_sqrt_trivial_and_exact_square():
    assert Series.one(5).sqrt() == Series.one(5)
    sq = (Series.one(6) - Series.z(6)) ** 2
    assert sq.sqrt() == Series.one(6) - Series.z(6)


def test_sqrt_requires_unit_one():
    with pytest.raises(NonUnitConstantTerm):
        Series([4, 1], 4).sqrt()


def test_pow_basics():
    a = Series([1, 1], 5)
    assert a**0 == Series.one(5)
    assert ints(a**2) == [1, 2, 1, 0, 0]
    inv = (Series.one(6) - Series.z(6)) ** (-1)
    assert ints(inv) == [1] * 6


def test_min_order_propagation():
    a = Series([1, 2, 3], 3)
    b = Series([1, 1], 2)
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert (a / b).order == 2


@settings(max_examples=60, deadline=None)
@given(series8, series8, series8)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(series8, unit_series8)
def test_div_mul_roundtrip(a, b):
    assert ((a / b) * b).matches(a)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=7, max_size=7))
def test_sqrt_squares(tail):
    a = Series([Q(1)] + tail)
    assert (a.sqrt() ** 2).matches(a)


def test_marker_extract_simple():
    m = MarkerSeries([{0: Q(1)}, {1: Q(1), -1: Q(1)}], 2)
    assert ints(m.extract(0)) == [1, 0]


def test_marker_square_of_up_down():
    base = MarkerSeries.marker_power(1, 3) + MarkerSeries.marker_power(-1, 3)
    sq = base * base
    assert sq.coeffs[0] == {2: Q(1), 0: Q(2), -2: Q(1)}
    assert sq.extract(0)[0] == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.dictionaries(st.integers(-2, 2), rationals, max_size=3), min_size=5, max_size=5),
    st.lists(st.dictionaries(st.integers(-2, 2), rationals, max_size=3), min_size=5, max_size=5),
)
def test_marker_extract_is_convolution(da, db):
    a, b = MarkerSeries(da), MarkerSeries(db)
    lhs = (a * b).extract(0)
    rhs = Series.zero(5)
    for k in range(-2, 3):
        rhs = rhs + a.extract(k) * b.extract(-k)
    assert lhs.matches(rhs)


def test_marker_at_one_sums_slices():
    m = MarkerSeries([{0: Q(1)}, {1: Q(2), -1: Q(3)}], 2)
    assert list(m.at_one().coeffs) == [Q(1), Q(5)]
