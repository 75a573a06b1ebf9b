"""Split-algebra products against the per-pair reduction they replace, and
every other element operation against the same operation on the element's
Series coordinates, on the integer layout (one numerator tuple per basis
exponent over one denominator).

``ref_mul`` is the product as it was first written: every pair of
coordinates makes its own series product, which is then reduced through
the canonical coordinates of its combined exponent, multiplying even a
basis exponent by its coordinate 1.  ``ref_canon`` rebuilds the canonical
monomials the same way, from the algebra's relation tower alone.
"""

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees.dary import DaryFamily
from embtrees.kernel import family_base
from embtrees.series import Series
from embtrees import splitting
from embtrees.splitting import SAElement, SplitAlgebra

ORDER = 8
FACTORS = {
    2: family_base(DaryFamily("odd", 2).kinds, ORDER)[0],
    3: family_base(DaryFamily("even", 2).kinds, ORDER)[0],
}
ALGEBRAS = {c: SplitAlgebra(small) for c, small in FACTORS.items()}


def basis(alg):
    out = [()]
    for cap in alg._caps:
        out = [e + (k,) for e in out for k in range(cap + 1)]
    return out


def series_view(coords, den):
    """(exponent, numerators, valuation) triples over den as {exponent: Series}."""
    return {e: Series._normed(t, den) for e, t, _ in coords}


def canon_view(alg, exps):
    """The algebra's cached canonical coordinates of a monomial, as Series."""
    got = alg._canon(exps)
    return {exps: Series.one(alg.order)} if got is None else series_view(*got)


def ref_canon(alg, exps, cache):
    got = cache.get(exps)
    if got is not None:
        return got
    over = next((g for g, cap in enumerate(alg._caps) if exps[g] > cap), None)
    if over is None:
        result = {exps: Series.one(alg.order)}
    else:
        rest = list(exps)
        rest[over] -= alg._caps[over] + 1
        result = {}
        for e1, s1 in series_view(*alg._rules[over]).items():
            for e2, s2 in ref_canon(alg, tuple(rest), cache).items():
                prod = s1 * s2
                combined = tuple(x + y for x, y in zip(e1, e2))
                for e3, s3 in ref_canon(alg, combined, cache).items():
                    term = prod * s3
                    result[e3] = term if e3 not in result else result[e3] + term
        result = {k: v for k, v in result.items() if not v.is_zero()}
    cache[exps] = result
    return result


def ref_mul(a, b):
    alg, cache = a.alg, {}
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            prod = ca * cb
            combined = tuple(x + y for x, y in zip(ea, eb))
            for em, sm in ref_canon(alg, combined, cache).items():
                term = prod * sm
                out[em] = term if em not in out else out[em] + term
    return SAElement(alg, out, min(a.stored_order, b.stored_order, alg.order))


def ref_invert_one_plus(u):
    """(1 + u)^-1 by Newton steps at the full order, on the reference product."""
    alg = u.alg
    a = alg.one() + u
    two = alg.from_series(Series.constant(2, alg.order))
    y = alg.one()
    # each step doubles the precision, counted in units of z^(1/c)
    for _ in range((alg.c * alg.order).bit_length() + 1):
        y = ref_mul(y, two - ref_mul(a, y))
    return y


rationals = st.builds(Q, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 7, 2**61 - 1]))


@st.composite
def elements(draw, c):
    """An element with rational coordinates on some basis monomials.

    Stored orders reach two past the algebra's.
    """
    alg = ALGEBRAS[c]
    order = draw(st.integers(2, ORDER + 2))
    monos = draw(st.lists(st.sampled_from(basis(alg)), min_size=1, max_size=4, unique=True))
    coeffs = {e: Series(draw(st.lists(rationals, min_size=order, max_size=order)))
              for e in monos}
    return SAElement(alg, coeffs)


def same(x, y):
    return x.coeffs == y.coeffs and x.stored_order == y.stored_order


@st.composite
def mixed_elements(draw, c):
    """An element at a drawn stored order, from coordinates of unequal orders.

    Denominators mix 1, small primes and a 61-bit prime.  A coordinate may
    be zero, or vanish only below the stored order; the element may have
    no coordinate at all.  Stored orders reach two past the algebra's.
    """
    alg = ALGEBRAS[c]
    order = draw(st.integers(1, ORDER + 2))
    coeffs = {}
    for e in draw(st.lists(st.sampled_from(basis(alg)), max_size=4, unique=True)):
        size = draw(st.integers(order, order + 3))
        kind = draw(st.sampled_from(["dense", "dense", "zero", "high"]))
        head = [0] * order if kind == "high" else []
        tail = [] if kind == "zero" else draw(st.lists(rationals, min_size=size, max_size=size))
        coeffs[e] = Series((head + tail)[:size] or [0], size)
    return SAElement(alg, coeffs, order)


def agrees(x, coords, order):
    """x holds the nonzero Series coordinates ``coords`` at stored order ``order``,
    on a normalised integer layout."""
    nums = list(x._num.values())
    assert all(len(t) == order and any(t) for t in nums)
    assert x._den > 0 and gcd(x._den, *[v for t in nums for v in t]) == 1
    return (x.coeffs == {e: s for e, s in coords.items() if not s.is_zero()}
            and x.stored_order == order)


def coords_at(x, order):
    return {e: s.with_order(order) for e, s in x.coeffs.items()}


@pytest.mark.parametrize("c", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_matches_per_pair_reference(c, data):
    a = data.draw(elements(c))
    b = data.draw(elements(c))
    assert same(a * b, ref_mul(a, b))


@pytest.mark.parametrize("c", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sums_match_series_coordinates(c, data):
    a, b = data.draw(mixed_elements(c)), data.draw(mixed_elements(c))
    n = min(a.stored_order, b.stored_order)
    ca, cb, zero = coords_at(a, n), coords_at(b, n), Series.zero(n)
    keys = set(ca) | set(cb)
    assert agrees(a + b, {e: ca.get(e, zero) + cb.get(e, zero) for e in keys}, n)
    assert agrees(a - b, {e: ca.get(e, zero) - cb.get(e, zero) for e in keys}, n)
    assert agrees(-a, {e: -s for e, s in a.coeffs.items()}, a.stored_order)


@pytest.mark.parametrize("c", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scalar_products_match_series_coordinates(c, data):
    a = data.draw(mixed_elements(c))
    s = Series(data.draw(st.lists(rationals, min_size=1, max_size=ORDER + 3)))
    for q in (data.draw(rationals), data.draw(st.integers(-5, 5))):
        for got in (a * q, q * a):
            assert agrees(got, {e: x * q for e, x in a.coeffs.items()}, a.stored_order)
    n = min(a.stored_order, s.order)
    for got in (a * s, s * a):
        assert agrees(got, {e: x.truncate(n) * s.truncate(n) for e, x in a.coeffs.items()}, n)


@pytest.mark.parametrize("c", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_with_order_cuts_and_pads_every_coordinate(c, data):
    a = data.draw(mixed_elements(c))
    k = data.draw(st.integers(1, ORDER + 4))
    assert agrees(a.with_order(k), coords_at(a, k), k)
    assert a.valuation() == min((s.valuation() for s in a.coeffs.values()), default=None)


@pytest.mark.parametrize("c", [2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_coordinates_off_the_basis_are_reduced(c, data):
    alg = ALGEBRAS[c]
    exps = data.draw(st.tuples(*[st.integers(0, 3)] * c))
    s = Series(data.draw(st.lists(rationals, min_size=ORDER, max_size=ORDER)))
    want = {e: s * x for e, x in ref_canon(alg, exps, {}).items()}
    assert agrees(SAElement(alg, {exps: s}), want, ORDER)


@pytest.mark.parametrize("c", [2, 3])
def test_canonical_monomials_match_reference(c):
    alg = ALGEBRAS[c]
    cache = {}
    for exps in [(3, 0, 0)[:c], (1, 2, 1)[:c], (2,) * c, (0, 3, 2)[:c]]:
        assert canon_view(alg, exps) == ref_canon(alg, exps, cache)


@pytest.mark.parametrize("c", [2, 3])
def test_monomials_and_powers_match_products_from_one(c):
    alg = ALGEBRAS[c]
    for g in range(c):
        assert same(alg.gen_power(g, 1), ref_mul(alg.one(), alg.generator(g)))
    exps = (2, 1, 1)[:c]
    acc = alg.one()
    for g, k in enumerate(exps):
        acc = ref_mul(acc, alg.gen_power(g, k))
    assert same(alg.monomial(exps), acc)


@pytest.mark.parametrize("c", [2, 3])
def test_negative_root_powers_are_refused(c):
    alg = ALGEBRAS[c]
    with pytest.raises(ValueError):
        alg.gen_power(c - 1, -1)
    with pytest.raises(ValueError):
        alg.monomial((1, -1, 0)[:c])
    with pytest.raises(ValueError):
        alg.monomial((0, -2, 1)[:c], 3)


def test_zero_elements_keep_their_order():
    # z^2 vanishes to order 2, so the element is zero known to order 2,
    # and so is whatever it meets
    alg = ALGEBRAS[2]
    zero = alg.from_series(Series.z(ORDER) ** 2).with_order(2)
    assert zero.is_zero() and zero.stored_order == 2
    short = alg.from_series(Series([1, 1], 2)) + alg.generator(0)
    assert short.stored_order == 2
    for got in (zero * short, zero * alg.one(), zero + alg.one(), -zero, zero * Q(3)):
        assert got.stored_order == 2
    assert (zero * Series.one(1)).stored_order == 1
    assert zero.as_series() == Series.zero(2)


def test_basis_exponents_take_no_product(monkeypatch):
    # a series times an element lands on basis exponents only, so the
    # product makes one coordinate product per coordinate and no reduction
    alg = ALGEBRAS[3]
    a = alg.from_series(Series([0, 1, Q(1, 2)], ORDER))
    b = SAElement(alg, {e: Series([1, Q(k + 1, 3)], ORDER) for k, e in enumerate(basis(alg))})
    calls = []
    original = splitting._mul_ints

    def counting(x, y, n):
        calls.append(1)
        return original(x, y, n)

    monkeypatch.setattr(splitting, "_mul_ints", counting)
    product = a * b
    monkeypatch.undo()
    assert len(calls) == len(b.coeffs)
    assert same(product, ref_mul(a, b))


@pytest.mark.parametrize("c", [2, 3])
def test_inversion_matches_full_order_newton(c):
    alg = ALGEBRAS[c]
    u = alg.generator(0) + alg.generator(c - 1) * Q(2, 3) + alg.monomial((1,) * c)
    got, ref = alg.invert_one_plus(u), ref_invert_one_plus(u)
    assert (got - ref).is_zero() and got.stored_order == alg.order


@pytest.mark.parametrize("c", [2, 3])
def test_short_inversion_is_the_full_inverse_cut(c):
    alg = ALGEBRAS[c]
    u = alg.generator(0) + alg.generator(c - 1) * Q(2, 3) + alg.monomial((1,) * c)
    full = alg.invert_one_plus(u)
    for k in range(1, ORDER):
        assert same(alg.invert_one_plus(u, k), full.with_order(k)), k


@pytest.mark.parametrize("c", [2, 3])
def test_short_inversion_still_rejects_a_non_unit(c):
    # 1 + u = X_1 has z-valuation 1/c: no inverse at any order
    alg = ALGEBRAS[c]
    u = alg.generator(0) - alg.one()
    for k in (2, ORDER // 2):
        with pytest.raises(ArithmeticError):
            alg.invert_one_plus(u, k)


@pytest.mark.parametrize("c", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_short_monomial_is_the_full_monomial_cut(c, data):
    # a fresh algebra builds the first order drawn and cuts the second from
    # it when that one is shorter; the full monomial comes last
    alg = SplitAlgebra(FACTORS[c])
    exps = data.draw(st.tuples(*[st.integers(0, 4)] * c))
    orders = data.draw(st.lists(st.integers(1, ORDER + 2), min_size=2, max_size=2))
    short = [alg.monomial(exps, k) for k in orders]
    full = ALGEBRAS[c].monomial(exps)
    for k, got in zip(orders, short):
        assert same(got, full.with_order(min(k, full.stored_order)))
