"""Truncation coherence: a result at order n is the result at order n + k cut to n.

This is a metamorphic relation, so it needs no oracle: it holds for every
input, not only those the campaign pins.  It catches a result that claims
more precision than its inputs carry, such as coefficients read from
zero-padding, since those change when the order grows.
"""

from fractions import Fraction as Q

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embtrees.binary import BinaryWeights, binary_Tj_closed
from embtrees.dary import DaryFamily, dary_alpha_general, rho_series
from embtrees.errors import InsufficientPrecision
from embtrees.kernel import family_base
from embtrees.paths import meander_gf
from embtrees.series import Series
from embtrees.steps import StepSet
from embtrees.walkers import lockstep_refined, quarterplane_gf, randomturn_gf

FAMILIES = [DaryFamily(kind, d) for kind in ("odd", "even") for d in (1, 2)]


def cut_coordinates(entry, order):
    """An entry's coordinates cut to ``order``, those that vanish there dropped."""
    cut = {e: s.truncate(order) for e, s in entry.coeffs.items()}
    return {e: s for e, s in cut.items() if not s.is_zero()}


@st.composite
def polynomial_seeds(draw, count):
    """``count`` polynomials of valuation at least 1, as coefficient lists.

    Half the draws give every branch the same seed, which makes the
    table symmetric, so that its level sums are plain series.
    """
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    seeds = []
    for _ in range(count):
        valuation = draw(st.integers(1, 4))
        body = draw(st.lists(coeff, min_size=1, max_size=3))
        seeds.append([Q(0)] * valuation + body)
    return [seeds[0]] * count if draw(st.booleans()) else seeds


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 3), st.integers(3, 8), st.integers(1, 3),
       st.data())
def test_dary_table_and_rho_are_truncation_coherent(fam, bound, order, k, data):
    seeds = data.draw(polynomial_seeds(fam.branch_count))
    # polynomials are exact at any order: each seed is given to order + k + 1 terms
    short, long = (dary_alpha_general(fam, bound, [Series(s, n + 1) for s in seeds], n)
                   for n in (order, order + k))
    assert short.entries.keys() == long.entries.keys()
    for index, entry in short.entries.items():
        assert entry.stored_order >= order
        assert cut_coordinates(entry, order) == cut_coordinates(long.entries[index], order)
    if any(s != seeds[0] for s in seeds):
        return
    for j in range(0, -min(fam.offsets) + 1 + max(fam.offsets) + 1):
        assert rho_series(short, j, order) == rho_series(long, j, order + k).truncate(order), j


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 3), st.integers(3, 8), st.integers(-3, 1),
       st.integers(1, 3), st.data())
def test_dary_table_reads_no_seed_coefficient_it_lacks(fam, bound, order, shift, k, data):
    # seeds known to a few terms more or fewer than the table's order: the
    # table either refuses them or agrees with one built from longer seeds
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    known = order + 1 + shift
    seeds = [[Q(0)] + data.draw(st.lists(coeff, min_size=known + k, max_size=known + k))
             for _ in range(fam.branch_count)]
    try:
        short = dary_alpha_general(fam, bound, [Series(s[:known]) for s in seeds], order)
    except InsufficientPrecision:
        return
    longer = dary_alpha_general(fam, bound, [Series(s[:known + k]) for s in seeds], order)
    for index, entry in short.entries.items():
        assert cut_coordinates(entry, order) == cut_coordinates(longer.entries[index], order)


@st.composite
def kind_lists(draw):
    """Kinds of 1-3 offsets in -2..2 with positive weights, the first with a downward offset."""
    kind = st.tuples(st.fractions(min_value=Q(1, 5), max_value=3, max_denominator=5),
                     st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(tuple))
    kinds = draw(st.lists(kind, min_size=1, max_size=3))
    w, offs = kinds[0]
    return [(w, (draw(st.integers(-2, -1)),) + offs[1:])] + kinds[1:]


@settings(max_examples=30, deadline=None)
@given(kind_lists(), st.integers(1, 10), st.integers(1, 4))
def test_family_base_is_truncation_coherent(kinds, order, k):
    (small, T), (long_small, long_T) = family_base(kinds, order), family_base(kinds, order + k)
    assert small.order == T.order == order
    assert T == long_T.truncate(order)
    assert small.c == long_small.c
    assert small.elementary == tuple(e.truncate(order) for e in long_small.elementary)


weights = st.sampled_from([Q(0), Q(1, 2), Q(1), Q(2), Q(3, 5)])


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def closed_weights(v1, v2, w1, w23):
    if w1 == w23 == 0:
        w1 = Q(1)  # the closed family excludes the all-zero binary weights
    return BinaryWeights.make(v1, v2, w1, w23, w23)


@settings(max_examples=25, deadline=None)
@given(weights, weights, weights, weights, st.integers(-1, 4), st.integers(2, 12),
       st.integers(1, 4), st.integers(2, 4), st.lists(coeffs, min_size=1, max_size=3))
def test_closed_level_family_is_truncation_coherent(v1, v2, w1, w23, j, order, k, valuation,
                                                    body):
    # a polynomial parameter of valuation >= 2 is exact at any order, and
    # keeps the numerator's valuation at or above the denominator's
    w = closed_weights(v1, v2, w1, w23)
    lam = Series([Q(0)] * valuation + body, order + k + 6)
    short = binary_Tj_closed(w, lam, j, order)
    assert short.order == order
    assert short == binary_Tj_closed(w, lam, j, order + k).truncate(order)


@settings(max_examples=25, deadline=None)
@given(weights, weights, weights, weights, st.integers(-1, 4), st.integers(2, 12),
       st.integers(-1, 6), st.integers(1, 4), st.data())
def test_closed_level_family_reads_no_parameter_coefficient_it_lacks(v1, v2, w1, w23, j, order,
                                                                     shift, k, data):
    # a parameter known to a few terms more or fewer than the order: the
    # closed form either refuses it or agrees with one read from more terms
    w = closed_weights(v1, v2, w1, w23)
    known = order + shift
    lam = [Q(0), Q(0)] + data.draw(st.lists(coeffs, min_size=known + k, max_size=known + k))
    assume(any(lam[:known]))  # a zero parameter is documented as exact at any order
    try:
        short = binary_Tj_closed(w, Series(lam[:known]), j, order)
    except InsufficientPrecision:
        assert shift < 2
        return
    assert short == binary_Tj_closed(w, Series(lam[:known + k]), j, order)


@st.composite
def step_sets(draw):
    """Two-sided step sets: jumps in [-3, 3], positive rational weights."""
    jumps = {draw(st.integers(-3, -1)), draw(st.integers(1, 3))}
    jumps |= set(draw(st.lists(st.integers(-3, 3), max_size=2)))
    weight = st.fractions(min_value=Q(1, 5), max_value=3, max_denominator=5)
    return StepSet.make([(b, draw(weight)) for b in sorted(jumps)])


@settings(max_examples=25, deadline=None)
@given(step_sets(), st.integers(0, 4), st.integers(1, 12), st.integers(1, 4))
def test_meanders_are_truncation_coherent(steps, level, order, k):
    short, long = meander_gf(steps, level, order), meander_gf(steps, level, order + k)
    assert short.plain.order == short.marked.order == order
    assert short.plain == long.plain.truncate(order)
    assert short.marked == long.marked.truncate(order)


marks = st.fractions(min_value=-2, max_value=3, max_denominator=5)
gaps = st.integers(0, 4)


@settings(max_examples=25, deadline=None)
@given(marks, marks, gaps, gaps, st.integers(1, 12), st.integers(1, 4))
def test_refined_stars_are_truncation_coherent(u, w, i, j, order, k):
    short = lockstep_refined(u, w, i, j, order).series
    assert short.order == order
    assert short == lockstep_refined(u, w, i, j, order + k).series.truncate(order)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["dyck", "motzkin"]), st.sampled_from(["vicious", "osculating"]),
       st.sampled_from(["S1", "S2"]), gaps, gaps, st.integers(1, 14), st.integers(1, 4))
def test_random_turn_and_quarter_plane_stars_are_truncation_coherent(steps, boundary, model,
                                                                      i, j, order, k):
    short = randomturn_gf(steps, boundary, i, j, order).series
    assert short.order == order
    assert short == randomturn_gf(steps, boundary, i, j, order + k).series.truncate(order)
    short = quarterplane_gf(model, i, j, order)
    assert short.order == order
    assert short == quarterplane_gf(model, i, j, order + k).truncate(order)
