from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees.errors import DegenerateStepSet, NoRootAtOrigin, SingularRoot
from embtrees.kernel import (
    SeriesPoly,
    _char_poly,
    complete_homogeneous,
    fixed_point_solve,
    fuss_catalan,
    hensel_factor_pair,
    hensel_small_factor,
    newton_solve,
)
from embtrees.marker import MarkerSeries
from embtrees.series import Series
from embtrees.steps import StepSet, parse_step_set


def tree_equation(arity: int, order: int) -> SeriesPoly:
    z = Series.z(order)
    one = Series.one(order)
    coeffs = [one, -one] + [Series.zero(order)] * (arity - 2) + [z]
    return SeriesPoly.make(coeffs)


def test_newton_catalan():
    T = newton_solve(tree_equation(2, 8), 1)
    assert [int(c) for c in T.coeffs[:6]] == [1, 1, 2, 5, 14, 42]


def test_newton_ternary():
    T = newton_solve(tree_equation(3, 6), 1)
    assert [int(c) for c in T.coeffs[:5]] == [1, 1, 3, 12, 55]


def test_newton_linear_walker_limit():
    # T = 1 + (w+6) z T at w=2 is the geometric series in 8z
    order = 6
    z = Series.z(order)
    one = Series.one(order)
    eq = SeriesPoly.make([one, z * 8 - one])
    T = newton_solve(eq, 1)
    assert [int(c) for c in T.coeffs[:3]] == [1, 8, 64]


def test_newton_agrees_with_fixed_point():
    T = newton_solve(tree_equation(4, 10), 1)
    low = fixed_point_solve(lambda t: Series.one(10) + Series.z(10) * t**4, 1, 10)
    assert T.matches(low)


def test_newton_rejects_bad_seeds():
    with pytest.raises(NoRootAtOrigin):
        newton_solve(tree_equation(2, 5), 3)
    # T^2 - 2T + 1 has a double root at 1
    order = 5
    one = Series.one(order)
    eq = SeriesPoly.make([one, one * (-2), one])
    with pytest.raises(SingularRoot):
        newton_solve(eq, 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fuss_catalan_matches_tree_equation(d):
    T = newton_solve(tree_equation(d, 12), 1)
    for n in range(12):
        assert T[n] == fuss_catalan(n, d)
        assert fuss_catalan(n, d).denominator == 1


def test_fuss_catalan_values():
    assert fuss_catalan(3, 2) == 5
    assert fuss_catalan(0, 4) == 1
    assert fuss_catalan(4, 3) == 55


def test_dyck_small_branch():
    small = hensel_small_factor(StepSet.make([(-1, 1), (1, 1)]), 9)
    x1 = small.elementary[0]
    assert [int(c) for c in x1.coeffs] == [0, 1, 0, 1, 0, 2, 0, 5, 0]
    one = Series.one(10)
    z = Series.z(10)
    alt = (one - (one - z * z * 4).sqrt()) / (z * 2)
    assert x1.matches(alt)
    # the factor divides the characteristic polynomial: X - z(1 + X^2)
    resid = x1 - Series.z(9) * (Series.one(9) + x1 * x1)
    assert resid.is_zero()


def test_motzkin_small_branch():
    small = hensel_small_factor(StepSet.make([(-1, 1), (0, 1), (1, 1)]), 6)
    assert [int(c) for c in small.elementary[0].coeffs] == [0, 1, 1, 2, 4, 9]


def step_poly(steps: StepSet, order: int) -> list[Series]:
    """X^c (1 - z P(X)) by powers of X: each step a kind of one offset."""
    return _char_poly([(w, (b,)) for b, w in steps.steps], Series.one(order), order)[0]


def test_two_branch_factor_reconstructs():
    steps = StepSet.make([(-2, 1), (1, 1)])
    f = step_poly(steps, 30)
    a, b = hensel_factor_pair(f, 2)
    prod = [Series.zero(30) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = prod[i + j] + ai * bj
    assert all((prod[k] - f[k]).is_zero() for k in range(len(f)))
    small = hensel_small_factor(steps, 30)
    assert all(e[0] == 0 for e in small.elementary)


def ref_hensel(f, c):
    """The factor pair lifted one z-order at a time in Fractions."""
    order = min(s.order for s in f)
    d = len(f) - 1 - c
    a = [[Q(0)] * c for _ in range(order)]
    b = [[Q(0)] * (d + 1) for _ in range(order)]
    b[0][0] = Q(1)
    for n in range(1, order):
        r = [fk[n] for fk in f]
        for i in range(1, n):
            for ka in range(c):
                for kb in range(d + 1):
                    r[ka + kb] -= a[i][ka] * b[n - i][kb]
        a[n] = r[:c]
        b[n] = r[c:]
    a_series = [Series([a[n][k] for n in range(order)]) for k in range(c)]
    return a_series + [Series.one(order)], [Series([b[n][k] for n in range(order)])
                                            for k in range(d + 1)]


weights = st.builds(Q, st.integers(1, 40),
                    st.one_of(st.sampled_from([1, 2, 3, 2**61 - 1]), st.integers(1, 2**61 - 1)))


@st.composite
def two_sided_steps(draw):
    downs = draw(st.lists(st.integers(-3, -1), min_size=1, max_size=3, unique=True))
    ups = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True).filter(
        lambda u: any(u)))
    return StepSet.make([(s, draw(weights)) for s in downs + ups])


@settings(max_examples=40, deadline=None)
@given(two_sided_steps(), st.integers(1, 24))
def test_hensel_matches_fraction_lift(steps, order):
    f = step_poly(steps, order)
    assert hensel_factor_pair(f, steps.max_down) == ref_hensel(f, steps.max_down)


def test_hensel_on_a_non_trivial_z_factor():
    # T = 1 + z/7 + ... entering through kinds of two and three offsets, as trees pass it
    order = 16
    T = Series([1, Q(1, 7), Q(-2, 3)], order)
    kinds = [(Q(1), (-2, -1, 1)), (Q(2, 5), (3, 0)), (Q(1, 9), (-1,))]
    f, c = _char_poly(kinds, T, order)
    assert c == 2 and hensel_factor_pair(f, 2) == ref_hensel(f, 2)


@pytest.mark.parametrize("bad", ["head", "constant"])
def test_hensel_rejects_polynomial_not_reducing_to_x_power(bad):
    f = step_poly(parse_step_set("-1:1,1:1"), 6)
    if bad == "head":
        f[1] = f[1] * 2  # X^c with constant coefficient 2
    else:
        f[0] = f[0] + 1  # a constant term at z = 0
    with pytest.raises(ValueError, match="does not reduce to X"):
        hensel_factor_pair(f, 1)


def test_degenerate_step_set():
    with pytest.raises(DegenerateStepSet):
        hensel_small_factor(StepSet.make([(1, 1), (2, 1)]), 5)


def test_complete_homogeneous_single_branch():
    small = hensel_small_factor(StepSet.make([(-1, 1), (1, 1)]), 10)
    h = complete_homogeneous(small, 4)
    x1 = small.elementary[0]
    for f in range(5):
        assert h[f].matches(x1**f)
    assert h[1] == small.elementary[0]


def test_homogeneous_generating_identity():
    # sum_f h_f t^f times prod (1 - X_l t) telescopes to 1
    small = hensel_small_factor(StepSet.make([(-2, 1), (2, 1)]), 20)
    h = complete_homogeneous(small, 20)
    lhs = MarkerSeries.zero(20)
    for f, hf in enumerate(h):
        lhs = lhs + MarkerSeries.series_times_marker(hf, f)
    prod = MarkerSeries.one(20)
    for k in range(1, small.c + 1):
        e = small.elementary[k - 1]
        prod = prod + MarkerSeries.series_times_marker(e if k % 2 == 0 else -e, k)
    total = lhs * prod
    for n in range(20):
        for power, coeff in total.coeffs[n].items():
            if power <= 20:
                assert (n, power, coeff) == (0, 0, Q(1))
