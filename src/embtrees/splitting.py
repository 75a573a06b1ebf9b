"""Exact arithmetic in the root algebra of a small factor.

Given the monic degree-c small factor A(X) with series coefficients, this
module computes in Q[[z]][X_1, ..., X_c] modulo the relations that make
X_1..X_c the (formal) roots of A.  The algebra is a free module of rank
c! over the series ring with basis X_1^{a_1} ... X_c^{a_c}, a_i <= c - i.
Products are reduced with the classical tower of monic relation
polynomials obtained by synthetic division, so no individual root (which
may live in a fractional-power extension) is ever materialized: any
symmetric expression reduces to an honest power series.

Representation.  An element has the layout of ``Series``, ``MarkerSeries``
and ``MultiPoly``: one tuple of integer numerators per basis exponent, all
of one length, the stored order, over one positive common denominator
``d``, normalised so that gcd(numerators, d) = 1 (the zero element has
d = 1).  A vanishing coordinate is not kept.

A product is one fused pass on the integers: the series core's
``_mul_ints`` makes each coordinate pair's product, and the pair products
are summed per combined exponent.  Each exponent outside the basis is then
reduced once, through its canonical coordinates, kept per algebra as
integer numerators over their own denominator (computed once, at the
algebra's order, and cached); a basis exponent needs no product at all.
A product whose two valuations add up to the stored order or more is
zero there and is not made.  The reduced sums share one denominator, and
one gcd normalises the result.  Canonical monomials are built by the same
two steps, from one relation and a lower monomial.  Sums, negation,
``with_order`` and products by a rational or a ``Series`` also run on the
integers.  ``coeffs`` gives the coordinates as a dict {basis exponent:
Series}, built afresh on each call.  Root powers are non-negative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .counts import COUNTS
from .kernel import SmallFactor
from .series import Series, _mul_ints, _valuation, common_den


class SplitAlgebra:
    def __init__(self, small: SmallFactor):
        self.c = small.c
        self.order = small.order
        self.e = list(small.elementary)
        # the roots then have valuation 1/c, which invert_one_plus's schedule counts in
        if self.c >= 1 and self.e[-1].valuation() != 1:
            raise ValueError("bottom elementary symmetric function must have valuation 1")
        self._caps = tuple(self.c - 1 - g for g in range(self.c))
        self._unit = (1,) + (0,) * (self.order - 1)
        # exponent -> None for a basis exponent, else its canonical
        # (coordinates, denominator) at the algebra's order
        self._canon_cache: dict[tuple[int, ...], tuple[list, int] | None] = {}
        # the caches keep integer layouts, not elements: an element refers
        # to its algebra, so keeping one would make a cycle
        self._gen_power_cache: dict[tuple[int, int], tuple[dict, int, int]] = {}
        self._monomials: dict[tuple[int, ...], tuple[int, tuple[dict, int, int]]] = {}
        self._rules: list[tuple[list, int]] = []
        self._build_rules()

    # -- relation tower -------------------------------------------------

    def _build_rules(self) -> None:
        """Fill _rules[g]: canonical expansion of X_g^(caps[g]+1), as (coordinates, denominator)."""
        c = self.c
        one = Series.one(self.order)
        # q(T) for generator 0 is the small factor itself.
        q: list[SAElement] = []
        for k in range(c + 1):
            if k == c:
                q.append(self.from_series(one))
            else:
                j = c - k
                e = self.e[j - 1]
                q.append(self.from_series(e if j % 2 == 0 else -e))
        for g in range(c):
            m = len(q) - 1  # q is monic of degree m = c - g
            rule = self.zero()
            for k in range(m):
                shift = tuple(k if i == g else 0 for i in range(c))
                rule = rule - SAElement._raw(self, {tuple(map(add, e, shift)): t
                                                    for e, t in q[k]._num.items()},
                                             q[k]._den, q[k].stored_order)
            self._rules.append((_valued(rule._num), rule._den))
            if g == c - 1:
                break
            # Synthetic division of q by (T - X_g) for the next generator.
            x_g = self.generator(g)
            b = [None] * m
            b[m - 1] = q[m]
            for k in range(m - 1, 0, -1):
                b[k - 1] = q[k] + x_g * b[k]
            q = b

    # -- canonical monomials ---------------------------------------------

    def _is_basis(self, exps: tuple[int, ...]) -> bool:
        return all(e <= cap for e, cap in zip(exps, self._caps))

    def _canon(self, exps: tuple[int, ...]) -> tuple[list, int] | None:
        """None for a basis exponent, else the canonical coordinates of its monomial.

        The coordinates are (exponent, numerators, valuation) triples over
        the returned denominator.
        """
        if exps in self._canon_cache:
            return self._canon_cache[exps]
        over = next((g for g, cap in enumerate(self._caps) if exps[g] > cap), None)
        result = None
        if over is not None:
            # X_over^(cap+1) by its rule, times the canonical rest
            rest = list(exps)
            rest[over] -= self._caps[over] + 1
            rest_coords, rest_den = self._canon(tuple(rest)) or ([(tuple(rest), self._unit, 0)], 1)
            rule_coords, rule_den = self._rules[over]
            nums, den = self._product(rule_coords, rest_coords, rule_den * rest_den, self.order)
            result = _valued(nums), den
        self._canon_cache[exps] = result
        return result

    def _product(self, a: list, b: list, den: int, order: int) -> tuple[dict, int]:
        """Canonical (numerators, denominator) of the product of coordinate triples a, b over den.

        A pair whose valuations add up to ``order`` or more is skipped.
        """
        sums: dict[tuple[int, ...], list[int]] = {}
        for ea, na, va in a:
            for eb, nb, vb in b:
                if va + vb >= order:
                    continue
                e = tuple(map(add, ea, eb))
                term = _mul_ints(na, nb, order)
                cur = sums.get(e)
                sums[e] = term if cur is None else list(map(add, cur, term))
        return self._reduce(sums, den, order)

    def _reduce(self, sums: dict, den: int, order: int) -> tuple[dict, int]:
        """Canonical (numerators, denominator) of sum(s X^e) / den, each s of length ``order``.

        A basis exponent keeps its numerators; any other is multiplied into
        its canonical coordinates, once, skipping a coordinate whose product
        vanishes to ``order``.  Every sum is lifted over the lcm of those
        coordinates' denominators, and one gcd normalises the result.
        """
        canon = {e: self._canon(e) for e in sums}
        scale = lcm(1, *[got[1] for got in canon.values() if got is not None])
        out: dict[tuple[int, ...], list[int]] = {}
        for e, s in sums.items():
            got = canon[e]
            f = scale if got is None else scale // got[1]
            if f != 1:
                s = [x * f for x in s]
            if got is None:
                cur = out.get(e)
                out[e] = s if cur is None else list(map(add, cur, s))
                continue
            v = _valuation(s)
            if v is None:
                continue
            room = order - v
            for em, nm, vm in got[0]:
                if vm >= room:
                    continue
                term = _mul_ints(s, nm, order)
                cur = out.get(em)
                out[em] = term if cur is None else list(map(add, cur, term))
        return _normed(out, den * scale)

    # -- element constructors ---------------------------------------------

    def zero(self) -> SAElement:
        return SAElement._raw(self, {}, 1, self.order)

    def one(self) -> SAElement:
        return self.from_series(Series.one(self.order))

    def from_series(self, s: Series) -> SAElement:
        nums = {(0,) * self.c: s._num} if not s.is_zero() else {}
        return SAElement._raw(self, nums, s._den if nums else 1, s.order)

    def generator(self, g: int) -> SAElement:
        exps = tuple(int(i == g) for i in range(self.c))
        coords, den = self._canon(exps) or ([(exps, self._unit, 0)], 1)
        return SAElement._raw(self, {e: t for e, t, _ in coords}, den, self.order)

    def gen_power(self, g: int, k: int) -> SAElement:
        """X_g^k for k >= 0."""
        if k < 0:
            raise ValueError(f"negative root power X_{g}^{k}")
        key = (g, k)
        cached = self._gen_power_cache.get(key)
        if cached is not None:
            return SAElement._raw(self, *cached)
        if k == 0:
            result = self.one()
        elif k == 1:
            result = self.generator(g)
        else:
            result = self.gen_power(g, k - 1) * self.generator(g)
        self._gen_power_cache[key] = result._layout()
        return result

    def monomial(self, exps, order: int | None = None) -> SAElement:
        """X_1^exps[0] * ... with non-negative exponents.

        With ``order``: the full monomial cut to that stored order, from
        generator powers cut to it.  The cache keeps each monomial at the
        longest order built, and cuts it for shorter requests.
        """
        key = tuple(exps)
        if any(k < 0 for k in key):
            raise ValueError(f"negative root power in monomial {key}")
        order = self.order if order is None else min(order, self.order)
        built, cached = self._monomials.get(key, (0, None))
        if built < order:
            factors = [f if f.stored_order <= order else f.with_order(order)
                       for f in (self.gen_power(g, k) for g, k in enumerate(key) if k)]
            acc = reduce(mul, factors) if factors else self.one()
            acc = acc.with_order(min(order, acc.stored_order))
            self._monomials[key] = order, acc._layout()
            return acc
        acc = SAElement._raw(self, *cached)
        return acc if built == order else acc.with_order(min(order, acc.stored_order))

    def invert_one_plus(self, u: SAElement, order: int | None = None) -> SAElement:
        """(1 + u)^-1 for u with positive z-adic size, by Newton doubling.

        y = 1 is the inverse modulo the smallest positive power of z that u
        can hold, and each step y <- y(2 - ay) doubles the precision.  The
        roots have z-valuation 1/c (e_c has valuation 1), so u may hold
        z^(1/c) and precision doubles in those units: the schedule runs
        over c * order of them, each step working at the stored order that
        covers its precision, plus one order to spare.  A residual at the
        stored order ``order`` (the algebra's by default) confirms the result.
        """
        order = self.order if order is None else min(order, self.order)
        a = self.one() + u
        precs = [self.c * order]
        while precs[-1] > 1:
            precs.append((precs[-1] + 1) // 2)
        y = self.one()
        for p in reversed(precs[:-1]):
            prec = min(order, -(-p // self.c) + 1)
            y = y.with_order(prec)
            a_prec = a.with_order(min(prec, a.stored_order))
            y = y * (self.from_series(Series.constant(2, prec)) - a_prec * y)
        # padded, so that a schedule ending short of the order cannot pass
        residual = a * y.with_order(order) - self.one()
        if not residual.is_zero():
            raise ArithmeticError("inversion did not converge; element not a unit")
        return y


def _valued(nums: dict) -> list:
    """(exponent, numerators, valuation) triples of nonzero numerator tuples."""
    return [(e, t, _valuation(t)) for e, t in nums.items()]


def _normed(sums: dict, den: int) -> tuple[dict, int]:
    """Drop vanishing coordinates and reduce by one gcd with the positive denominator."""
    nums = {e: s for e, s in sums.items() if any(s)}
    if not nums:
        return {}, 1
    if den != 1:
        g = gcd(den, *chain.from_iterable(nums.values()))
        if g != 1:
            return {e: tuple([x // g for x in s]) for e, s in nums.items()}, den // g
    return {e: tuple(s) for e, s in nums.items()}, den


class SAElement:
    """Canonical coordinates: basis monomial -> integer numerators, over one denominator.

    ``stored_order`` is the order to which the element is known, kept
    when every coordinate vanishes; each coordinate holds that many
    numerators.  Built from a dict {exponent: Series}, it is by default
    the least order among the given coordinates, zero ones included.
    """

    __slots__ = ("alg", "_num", "_den", "stored_order")

    def __init__(self, alg: SplitAlgebra, coeffs: dict, order: int | None = None):
        if order is None:
            order = min((s.order for s in coeffs.values()), default=alg.order)
        if any(s.order < order for s in coeffs.values()):
            raise ValueError("cannot extend precision by truncation")
        basis = all(map(alg._is_basis, coeffs))
        if not basis:
            order = min(order, alg.order)
        den = lcm(1, *[s._den for s in coeffs.values()])
        sums = {e: [x * (den // s._den) for x in s._num[:order]] for e, s in coeffs.items()}
        self.alg = alg
        self._num, self._den = _normed(sums, den) if basis else alg._reduce(sums, den, order)
        self.stored_order = order

    @classmethod
    def _raw(cls, alg: SplitAlgebra, nums: dict, den: int, order: int) -> SAElement:
        """Wrap canonical numerators, already normalised and of length ``order``."""
        el = object.__new__(cls)
        el.alg, el._num, el._den, el.stored_order = alg, nums, den, order
        return el

    def _layout(self) -> tuple[dict, int, int]:
        return self._num, self._den, self.stored_order

    @property
    def coeffs(self) -> dict[tuple[int, ...], Series]:
        """The coordinates as a dict {basis exponent: Series}, built afresh."""
        return {e: Series._normed(t, self._den) for e, t in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def valuation(self) -> int | None:
        """The least z-valuation among the coordinates, or None for zero."""
        return min(map(_valuation, self._num.values()), default=None)

    def with_order(self, order: int) -> SAElement:
        """Every coordinate truncated, or zero-padded, to the stored order ``order``."""
        if order < 1 and self._num:
            raise ValueError("series needs at least one coefficient")
        pad = order - self.stored_order
        if pad >= 0:
            tail = (0,) * pad
            return SAElement._raw(self.alg, {e: t + tail for e, t in self._num.items()},
                                  self._den, order)
        nums, den = _normed({e: t[:order] for e, t in self._num.items()}, self._den)
        return SAElement._raw(self.alg, nums, den, order)

    def _combine(self, other: SAElement, op) -> SAElement:
        """self op other for op in (add, sub), over the lcm of the two denominators."""
        order = min(self.stored_order, other.stored_order)
        den, fa, fb = common_den(self._den, other._den)
        out = {e: t[:order] if fa == 1 else [x * fa for x in t[:order]]
               for e, t in self._num.items()}
        zeros = (0,) * order
        for e, t in other._num.items():
            t = t[:order] if fb == 1 else [x * fb for x in t[:order]]
            out[e] = list(map(op, out.get(e, zeros), t))
        return SAElement._raw(self.alg, *_normed(out, den), order)

    def __add__(self, other: SAElement) -> SAElement:
        return self._combine(other, add)

    def __sub__(self, other: SAElement) -> SAElement:
        return self._combine(other, sub)

    def __neg__(self) -> SAElement:
        return SAElement._raw(self.alg, {e: tuple([-x for x in t]) for e, t in self._num.items()},
                              self._den, self.stored_order)

    def __mul__(self, other) -> SAElement:
        alg = self.alg
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            sums = {e: [x * p for x in t] for e, t in self._num.items()} if p else {}
            return SAElement._raw(alg, *_normed(sums, self._den * q), self.stored_order)
        if isinstance(other, Series):
            order = min(self.stored_order, other.order)
            sums = {e: _mul_ints(t, other._num, order) for e, t in self._num.items()}
            return SAElement._raw(alg, *_normed(sums, self._den * other._den), order)
        if not isinstance(other, SAElement):
            return NotImplemented
        COUNTS["splitting.mul"] += 1
        order = min(self.stored_order, other.stored_order, alg.order)
        nums, den = alg._product(_valued(self._num), _valued(other._num),
                                 self._den * other._den, order)
        return SAElement._raw(alg, nums, den, order)

    __rmul__ = __mul__

    def as_series(self, order: int | None = None) -> Series:
        """Extract a symmetric element, one with only the unit coordinate, as a plain series."""
        unit = (0,) * self.alg.c
        for e in self._num:
            if e != unit:
                raise ArithmeticError(f"element is not symmetric: coordinate {e}")
        nums = self._num.get(unit)
        result = (Series.zero(self.stored_order) if nums is None
                  else Series._normed(nums, self._den))
        return result if order is None else result.truncate(order)
