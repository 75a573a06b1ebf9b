"""Exact arithmetic in the root algebra of a small factor.

Given the monic degree-c small factor A(X) with series coefficients, this
module computes in Q[[z]][X_1, ..., X_c] modulo the relations that make
X_1..X_c the (formal) roots of A.  The algebra is a free module of rank
c! over the series ring with basis X_1^{a_1} ... X_c^{a_c}, a_i <= c - i.
Products are reduced with the classical tower of monic relation
polynomials obtained by synthetic division, so no individual root (which
may live in a fractional-power extension) is ever materialized: any
symmetric expression reduces to an honest power series.

A product first sums the series products of its coordinate pairs per
combined exponent.  Each exponent outside the basis is then reduced once,
through its canonical coordinates (computed once per algebra and
cached); a basis exponent needs no product at all.  Canonical monomials
are built by the same two steps, from one relation and a lower monomial.
Root powers are non-negative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul

from .counts import COUNTS
from .kernel import SmallFactor
from .series import Series


class SplitAlgebra:
    def __init__(self, small: SmallFactor):
        self.c = small.c
        self.order = small.order
        self.e = list(small.elementary)
        # the roots then have valuation 1/c, which invert_one_plus's schedule counts in
        if self.c >= 1 and self.e[-1].valuation() != 1:
            raise ValueError("bottom elementary symmetric function must have valuation 1")
        self._caps = tuple(self.c - 1 - g for g in range(self.c))
        self._mono_cache: dict[tuple[int, ...], dict[tuple[int, ...], Series]] = {}
        # the caches keep (coordinates, stored order), not elements: an
        # element refers to its algebra, so keeping one would make a cycle
        self._gen_power_cache: dict[tuple[int, int], tuple[dict, int]] = {}
        self._monomials: dict[tuple[int, ...], tuple[int, tuple[dict, int]]] = {}
        self._rules: list[dict[tuple[int, ...], Series]] = []
        self._build_rules()

    # -- relation tower -------------------------------------------------

    def _build_rules(self) -> None:
        """Fill _rules[g]: canonical expansion of X_g^(caps[g]+1)."""
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
            rule: dict[tuple[int, ...], Series] = {}
            for k in range(m):
                for exps, s in q[k].coeffs.items():
                    key = list(exps)
                    key[g] += k
                    key_t = tuple(key)
                    cur = rule.get(key_t)
                    rule[key_t] = (-s) if cur is None else cur - s
            self._rules.append({k: v for k, v in rule.items() if not v.is_zero()})
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

    def _canon_monomial(self, exps: tuple[int, ...]) -> dict[tuple[int, ...], Series]:
        """Canonical coordinates of a non-negative monomial."""
        cached = self._mono_cache.get(exps)
        if cached is not None:
            return cached
        over = next((g for g, cap in enumerate(self._caps) if exps[g] > cap), None)
        if over is None:
            result = {exps: Series.one(self.order)}
        else:
            # X_over^(cap+1) by its rule, times the canonical rest
            rest = list(exps)
            rest[over] -= self._caps[over] + 1
            rest_canon = self._canon_monomial(tuple(rest))
            result = self._reduce(_pair_products(self._rules[over].items(), rest_canon.items()))
        self._mono_cache[exps] = result
        return result

    def _reduce(self, terms: dict[tuple[int, ...], Series]) -> dict[tuple[int, ...], Series]:
        """Canonical coordinates of sum(s * X^e): one reduction per exponent.

        A basis exponent keeps its series, cut to the algebra's order as
        the product with its canonical coordinate 1 would; any other is
        multiplied into its canonical coordinates.
        """
        out: dict[tuple[int, ...], Series] = {}
        order = self.order
        for e, s in terms.items():
            if self._is_basis(e):
                term = s if s.order <= order else s.truncate(order)
                cur = out.get(e)
                out[e] = term if cur is None else cur + term
                continue
            for em, sm in self._canon_monomial(e).items():
                term = s * sm
                cur = out.get(em)
                out[em] = term if cur is None else cur + term
        return {k: v for k, v in out.items() if not v.is_zero()}

    # -- element constructors ---------------------------------------------

    def zero(self) -> SAElement:
        return SAElement(self, {})

    def one(self) -> SAElement:
        return self.from_series(Series.one(self.order))

    def from_series(self, s: Series) -> SAElement:
        return SAElement(self, {(0,) * self.c: s})

    def generator(self, g: int) -> SAElement:
        exps = [0] * self.c
        exps[g] = 1
        return SAElement(self, dict(self._canon_monomial(tuple(exps))))

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
        self._gen_power_cache[key] = result.coeffs, result.stored_order
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
            self._monomials[key] = order, (acc.coeffs, acc.stored_order)
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


class SAElement:
    """Canonical coordinates: basis monomial -> nonzero series.

    ``stored_order`` is the order to which the element is known, kept
    when every coordinate vanishes; each coordinate is cut to it.  By
    default it is the least order among the given coordinates, zero
    ones included.
    """

    __slots__ = ("alg", "coeffs", "stored_order")

    def __init__(self, alg: SplitAlgebra, coeffs: dict, order: int | None = None):
        if order is None:
            order = min((s.order for s in coeffs.values()), default=alg.order)
        if not all(map(alg._is_basis, coeffs)):
            coeffs = alg._reduce(coeffs)
            order = min(order, alg.order)
        clean = {}
        for e, s in coeffs.items():
            if s.order != order:
                s = s.truncate(order)
            if not s.is_zero():
                clean[e] = s
        self.alg = alg
        self.coeffs = clean
        self.stored_order = order

    @classmethod
    def _raw(cls, alg: SplitAlgebra, coeffs: dict, order: int) -> SAElement:
        """Wrap canonical coordinates already cut to the stored order ``order``."""
        el = object.__new__(cls)
        el.alg, el.coeffs, el.stored_order = alg, coeffs, order
        return el

    def is_zero(self) -> bool:
        return not self.coeffs

    def with_order(self, order: int) -> SAElement:
        """Every coordinate truncated, or zero-padded, to the stored order ``order``."""
        return SAElement(self.alg, {e: c.with_order(order) for e, c in self.coeffs.items()},
                         order)

    def __add__(self, other: SAElement) -> SAElement:
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return SAElement(self.alg, out, min(self.stored_order, other.stored_order))

    def __neg__(self) -> SAElement:
        return SAElement(self.alg, {e: -c for e, c in self.coeffs.items()}, self.stored_order)

    def __sub__(self, other: SAElement) -> SAElement:
        return self + (-other)

    def __mul__(self, other) -> SAElement:
        if isinstance(other, (int, Fraction, Series)):
            order = (min(self.stored_order, other.order) if isinstance(other, Series)
                     else self.stored_order)
            return SAElement(self.alg, {e: c * other for e, c in self.coeffs.items()}, order)
        COUNTS["splitting.mul"] += 1
        alg = self.alg
        order = min(self.stored_order, other.stored_order, alg.order)
        return SAElement(alg, alg._reduce(_pair_products(self.coeffs.items(),
                                                         other.coeffs.items())), order)

    __rmul__ = __mul__

    def as_series(self, order: int | None = None) -> Series:
        """Extract a symmetric element, one with only the unit coordinate, as a plain series."""
        unit = (0,) * self.alg.c
        for e in self.coeffs:
            if e != unit:
                raise ArithmeticError(f"element is not symmetric: coordinate {e}")
        result = self.coeffs.get(unit)
        if result is None:
            result = Series.zero(self.stored_order)
        return result if order is None else result.truncate(order)


def _pair_products(a, b) -> dict[tuple[int, ...], Series]:
    """sum(ca * cb * X^(ea + eb)) over (exponent, series) items, one sum per exponent."""
    out: dict[tuple[int, ...], Series] = {}
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(map(add, ea, eb))
            term = ca * cb
            cur = out.get(e)
            out[e] = term if cur is None else cur + term
    return out
