from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees.dary import DaryFamily
from embtrees.kernel import family_base
from embtrees.errors import VariableMismatch
from embtrees.multipoly import MultiPoly, RationalFunction, rf_equal
from embtrees.series import Series

X = MultiPoly.var(("X",), "X")
ONE = MultiPoly.const(("X",), 1)


def test_cross_multiplication_basics():
    assert rf_equal(RationalFunction(X, X * X), RationalFunction(ONE, X))
    assert rf_equal(RationalFunction(ONE - X * X, ONE - X), RationalFunction(ONE + X))
    assert not rf_equal(RationalFunction(X), RationalFunction(X * X))


def test_variable_mismatch():
    other = MultiPoly.var(("Y",), "Y")
    with pytest.raises(VariableMismatch):
        X + other


def test_poly_algebra():
    p = (ONE + X) ** 3
    assert p.terms == {(0,): Q(1), (1,): Q(3), (2,): Q(3), (3,): Q(1)}
    assert (p - p).is_zero()


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=1,
    max_size=4,
).map(lambda terms: MultiPoly(("X",), terms))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@settings(max_examples=50, deadline=None)
@given(small_polys, nonzero_polys, nonzero_polys)
def test_rf_equal_is_equivalence_under_scaling(a, b, c):
    lhs = RationalFunction(a, b)
    scaled = RationalFunction(a * c, b * c)
    assert lhs.equals(lhs)
    assert lhs.equals(scaled) and scaled.equals(lhs)
    assert scaled.equals(RationalFunction(a * c * c, b * c * c))


@settings(max_examples=30, deadline=None)
@given(small_polys, nonzero_polys, nonzero_polys)
def test_rf_equal_implies_series_agreement(a, b, c):
    lhs = RationalFunction(a, b)
    rhs = RationalFunction(a * c, b * c)
    x = Series([0, 1, 1], 10)  # an admissible assignment with zero constant term
    try:
        lv = lhs.eval_series({"X": x})
        rv = rhs.eval_series({"X": x})
    except Exception:
        return  # denominator valuations need not cancel for random inputs
    assert lv.matches(rv)


def test_eval_series_identity_map():
    motzkin = Series([1, 1, 2, 4, 9, 21], 6)
    f = RationalFunction(X)
    assert f.eval_series({"X": motzkin}) == motzkin


def test_eval_series_unit_division():
    f = RationalFunction(ONE, ONE - X)
    zero_ct = Series([0, 1], 6)
    out = f.eval_series({"X": zero_ct})
    assert [int(c) for c in out.coeffs] == [1, 1, 1, 1, 1, 1]


def test_ternary_parametrization_reproduces_root_series():
    # eliminating z from the arity-3 pair gives T(X) = A/(A - N), z T^2 = N/A with
    # A = 1 - X^3, N = X(1 - X), so T = (1+X+X^2)/(1+X^2); composed with the small
    # characteristic branch they must rebuild T(z) and z.
    big_a, num = ONE - X**3, X * (ONE - X)
    t_of_x = RationalFunction(big_a, big_a - num)
    z_of_x = RationalFunction(num * (big_a - num) ** 2, big_a**3)
    expected = RationalFunction(
        MultiPoly(("X",), {(0,): 1, (1,): 1, (2,): 1}),
        MultiPoly(("X",), {(0,): 1, (2,): 1}),
    )
    assert t_of_x.equals(expected)
    small, T = family_base(DaryFamily("odd", 1).kinds, 30)
    branch = small.elementary[0]
    assert t_of_x.eval_series({"X": branch}).matches(T)
    assert z_of_x.eval_series({"X": branch}).matches(Series.z(30))
