"""One characteristic solver for every kind list.

``char_factor`` builds X^delta - z sum_k w_k T^(|O_k|-1) sum_(o in O_k)
X^(o+delta) from a kind list and splits off its small factor.  These
properties rebuild that polynomial from its definition, divide it by the
factor, and hold the solver to Newton's root and to the closed forms of
the binary and height families.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees import campaign
from embtrees import walkers as W
from embtrees.binary import BinaryWeights, _height_kinds
from embtrees.errors import DegenerateCharacteristic, DegenerateStepSet
from embtrees.kernel import SeriesPoly, char_factor, family_base, newton_solve, tree_root
from embtrees.paths import _meander_parts, meander_gf
from embtrees.series import Series
from embtrees.steps import StepSet

weights = st.fractions(min_value=Q(1, 5), max_value=3, max_denominator=5)


@st.composite
def kind_lists(draw, lowest=-3):
    """Kinds of 1-3 offsets in lowest..3, with at least one offset at ``lowest``."""
    kind = st.tuples(weights, st.lists(st.integers(lowest, 3), min_size=1, max_size=3).map(tuple))
    kinds = draw(st.lists(kind, min_size=1, max_size=4))
    w, offs = kinds[0]
    return [(w, (lowest,) + offs[1:])] + kinds[1:]


def char_poly(kinds, T: Series, order: int) -> list[Series]:
    """The characteristic polynomial by powers of X, one term at a time."""
    delta = -min(o for _, offs in kinds for o in offs)
    top = max(o for _, offs in kinds for o in offs) + delta
    f = [Series.zero(order) for _ in range(max(top, delta) + 1)]
    f[delta] = Series.one(order)
    z = Series.z(order)
    for w, offs in kinds:
        for o in offs:
            f[o + delta] = f[o + delta] - z * T ** (len(offs) - 1) * w
    return f


def factor_poly(sf) -> list[Series]:
    """The monic small factor X^c - e_1 X^(c-1) + e_2 X^(c-2) - ... by powers of X."""
    signed = [e if k % 2 == 0 else -e for k, e in enumerate(sf.elementary, 1)]
    return signed[::-1] + [Series.one(sf.order)]


@settings(max_examples=60, deadline=None)
@given(kind_lists(), st.integers(1, 20))
def test_factor_times_cofactor_is_the_polynomial(kinds, order):
    T = tree_root(kinds, order)
    f = char_poly(kinds, T, order)
    sf = char_factor(kinds, T, order)
    a = factor_poly(sf)
    c = sf.c
    assert c == -min(o for _, offs in kinds for o in offs)
    assert all(e[0] == 0 for e in sf.elementary)  # the factor reduces to X^c at z=0
    # divide F by the monic A: the remainder vanishes, and the cofactor is a unit
    rem, quot = list(f), [Series.zero(order) for _ in range(len(f) - c)]
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + c]
        for i in range(c + 1):
            rem[k + i] = rem[k + i] - quot[k] * a[i]
    assert all(r.is_zero() for r in rem)
    assert quot[0][0] == 1 and all(q[0] == 0 for q in quot[1:])
    product = [Series.zero(order) for _ in f]
    for i, ai in enumerate(a):
        for j, qj in enumerate(quot):
            product[i + j] = product[i + j] + ai * qj
    assert product == f


@settings(max_examples=60, deadline=None)
@given(kind_lists(lowest=-1), st.integers(1, 20))
def test_single_branch_root_is_newtons(kinds, order):
    T = tree_root(kinds, order)
    sf = char_factor(kinds, T, order)
    assert sf.c == 1
    assert sf.elementary[0] == newton_solve(SeriesPoly.make(char_poly(kinds, T, order)), 0)


binary_weights = st.tuples(*[st.fractions(min_value=0, max_value=3, max_denominator=5)] * 5).filter(
    lambda v: v[0] + v[2] + v[4] > 0)


@settings(max_examples=40, deadline=None)
@given(binary_weights, st.integers(1, 20))
def test_binary_square_root_form(vec, order):
    w = BinaryWeights.make(*vec)
    assert family_base(w.kinds, order)[0].elementary[0] == campaign._binary_x_radical(w, order)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=3, max_denominator=5),
       st.fractions(min_value=0, max_value=3, max_denominator=5), st.integers(1, 20))
def test_height_rational_form(v1, v2, order):
    small, _ = family_base(_height_kinds(v1, v2), order)
    T = tree_root(_height_kinds(v1, v2), order)
    assert small.elementary[0] == campaign._height_x_rational(v1, v2, T)


@pytest.mark.parametrize("kinds", [
    [],
    [(Q(1), (0,)), (Q(2), (0, 1))],
    [(Q(0), (-1,)), (Q(1), (0, 0))],  # a downward offset of weight 0 is none
])
def test_no_downward_offset_is_degenerate(kinds):
    with pytest.raises(DegenerateCharacteristic, match="no downward offset"):
        char_factor(kinds, Series.one(6), 6)


@pytest.mark.parametrize("steps", [[(1, 1), (2, 1)], [(-2, 1), (-1, 3)]])
def test_one_sided_step_set_is_degenerate(steps):
    with pytest.raises(DegenerateStepSet):
        _meander_parts(StepSet.make(steps), 5, 0)
    with pytest.raises(DegenerateStepSet):
        meander_gf(StepSet.make(steps), 0, 5)


def test_unknown_lockstep_boundary_is_a_value_error():
    with pytest.raises(ValueError, match="unknown boundary"):
        W.lockstep_star("refined", 1, 1, 6)
    with pytest.raises(ValueError, match="unknown boundary"):
        W.lockstep_star("nosuch", 1, 1, 6)
