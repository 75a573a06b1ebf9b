"""Algebraic machinery over truncated series.

Three layers live here:

* Newton iteration with order doubling for series roots of polynomial
  equations (plus a plain fixed-point iterator kept as a low-order
  cross-check),
* ``char_factor``, the one solver of every characteristic equation, built
  from a kind list (lattice paths and walkers are kinds of one offset):
  Hensel lifting splits it into the monic "small" factor (the factor
  that degenerates to X^c at z=0) and its unit cofactor, c = 1 included;
  ``tree_root`` solves the same kind list's tree equation for T, and
  ``family_base`` returns the two, the start of every closed form,
* symmetric-function plumbing for the small factor: elementary to
  complete homogeneous.

The small branches themselves are never represented individually; only
the coefficients of the small factor are first-class, which keeps every
computation inside honest power series even when the branches live in a
fractional-exponent extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .counts import COUNTS
from .errors import DegenerateCharacteristic, NoRootAtOrigin, SingularRoot
from .levels import Kinds, _span
from .series import Q, Series
from .steps import StepSet


@dataclass(frozen=True)
class SeriesPoly:
    """Polynomial in one unknown whose coefficients are z-series.

    ``coeffs[k]`` is the coefficient of unknown^k.  All coefficient series
    are truncated to one shared order on construction.
    """

    coeffs: tuple[Series, ...]

    @classmethod
    def make(cls, coeffs) -> SeriesPoly:
        cs = list(coeffs)
        order = min(c.order for c in cs)
        return cls(tuple(c.truncate(order) for c in cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def order(self) -> int:
        return self.coeffs[0].order

    def truncate(self, order: int) -> SeriesPoly:
        return SeriesPoly(tuple(c.truncate(order) for c in self.coeffs))

    def __call__(self, t: Series) -> Series:
        acc = Series.zero(min(self.order, t.order))
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> SeriesPoly:
        if len(self.coeffs) == 1:
            return SeriesPoly((Series.zero(self.order),))
        return SeriesPoly(
            tuple(c * k for k, c in enumerate(self.coeffs) if k >= 1)
        )


def newton_solve(equation: SeriesPoly, t0) -> Series:
    """Unique series root of ``equation`` with constant term ``t0``.

    Requires a simple root at z=0; converges quadratically, doubling the
    known order each step up to the equation's coefficient order.
    """
    COUNTS["kernel.newton"] += 1
    order = equation.order
    t0 = Q(t0)
    deriv = equation.derivative()
    f0 = equation(Series.constant(t0, 1))
    if f0[0] != 0:
        raise NoRootAtOrigin(f"value {t0} is not a root of the equation at z=0")
    d0 = deriv(Series.constant(t0, 1))
    if d0[0] == 0:
        raise SingularRoot("derivative vanishes at z=0; root is not simple")
    current = Series.constant(t0, 1)
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        t = current.with_order(prec)
        eq = equation.truncate(prec)
        de = deriv.truncate(prec)
        current = t - eq(t) / de(t)
    return current


def tree_root(kinds: Kinds, order: int) -> Series:
    """Series root of T = 1 + z * sum_k c_k T^k, c_k the summed weight of a kind list's
    kinds with k children (k >= 1).

    Degree at most 2 takes the closed quadratic root; higher degrees go
    through ``newton_solve``.
    """
    COUNTS["kernel.tree_root"] += 1
    weights: dict[int, Fraction] = {}
    for w, offs in kinds:
        weights[len(offs)] = weights.get(len(offs), 0) + w
    degree = max((k for k, c in weights.items() if c), default=0)
    if degree > 2:
        z = Series.z(order)
        coeffs = [Series.one(order)] + [z * weights.get(k, 0) for k in range(1, degree + 1)]
        coeffs[1] = coeffs[1] - 1
        return newton_solve(SeriesPoly.make(coeffs), 1)
    c1, c2 = weights.get(1, 0), weights.get(2, 0)
    if c2 == 0:
        one = Series.one(order)
        return one / (one - Series.z(order) * c1)
    g = order + 2
    z = Series.z(g)
    one = Series.one(g)
    rad = (one - z * c1) ** 2 - z * (4 * c2)
    num = one - z * c1 - rad.sqrt()
    return (num / (z * (2 * c2))).truncate(order)


def fixed_point_solve(step, t0, order: int, sweeps: int | None = None) -> Series:
    """Iterate ``t <- step(t)`` from the constant t0; low-order cross-check."""
    t = Series.constant(t0, order)
    for _ in range(sweeps if sweeps is not None else order + 1):
        t = step(t).truncate(order)
    return t


def fuss_catalan(n: int, d: int) -> Fraction:
    """binom(d*n, n) / ((d-1)*n + 1), exactly."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if d < 2:
        raise ValueError("arity d must be at least 2")
    return Q(math.comb(d * n, n), (d - 1) * n + 1)


# ---------------------------------------------------------------------------
# Hensel factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallFactor:
    """Monic degree-c factor that reduces to X^c at z=0.

    ``elementary[k-1]`` holds e_k, the k-th elementary symmetric function
    of the factor's roots, so the factor itself is
    X^c - e_1 X^{c-1} + e_2 X^{c-2} - ... + (-1)^c e_c.
    Every e_k has zero constant term.
    """

    c: int
    elementary: tuple[Series, ...]

    @property
    def order(self) -> int:
        return self.elementary[0].order

    def at_one(self) -> Series:
        """The factor evaluated at X=1, i.e. the product of (1 - root)."""
        acc = Series.one(self.order)
        for k, e in enumerate(self.elementary, start=1):
            acc = acc + (e if k % 2 == 0 else -e)
        return acc


def hensel_factor_pair(
    f: list[Series], c: int
) -> tuple[list[Series], list[Series]]:
    """Factor F = A*B with A monic of degree c, A = X^c and B = 1 at z=0.

    ``f[k]`` is the coefficient of X^k in F; F must reduce to X^c at z=0.
    The factorization is computed one z-order at a time: with the Bezout
    pair for (X^c, 1) being trivial, the order-n correction splits exactly
    into a low part (degree < c, absorbed by A) and a high part (divisible
    by X^c, absorbed by B).  Each order is exact, so A*B = F holds to the
    full truncation order.

    The lift runs on integers.  With D the lcm of the coefficient
    denominators, F(X, D z) has integer coefficients, and so do its
    factors, since no order divides.  Coefficient n of A(X, z) is then
    the integer one of A(X, D z) over D^n, which over the common
    denominator D^(order-1) is D^(order-1-n) times that integer.
    """
    COUNTS["kernel.hensel"] += 1
    order = min(s.order for s in f)
    deg = len(f) - 1
    d = deg - c
    for k, s in enumerate(f):
        if s._num[0] != (s._den if k == c else 0):
            raise ValueError("polynomial does not reduce to X^c at z=0")
    den = math.lcm(*[s._den for s in f])
    powers = [1]
    for _ in range(order - 1):
        powers.append(powers[-1] * den)
    # F(X, D z): the z^n coefficient numerator times D^n / (its denominator)
    scaled = [[x * p // s._den for x, p in zip(s._num, powers)] for s in f]
    # a[k][n]: z^n coefficient of the X^k coefficient of A(X, D z); same for b
    a = [[0] for _ in range(c)]
    b = [[1]] + [[0] for _ in range(d)]
    for n in range(1, order):
        # [z^n] F_m minus the cross terms A_i B_(n-i) of orders 1..n-1
        r = [col[n] for col in scaled]
        for ka, ac in enumerate(a):
            head = ac[1:n]
            for kb, bc in enumerate(b):
                r[ka + kb] -= sum(map(mul, head, bc[n - 1:0:-1]))
        # A_0 = X^c and B_0 = 1 contribute A_n + X^c * B_n at order n
        for k in range(c):
            a[k].append(r[k])
        for k in range(d + 1):
            b[k].append(r[c + k])
    top = powers[-1]

    def unscaled(col: list[int]) -> Series:
        return Series._normed([x * p for x, p in zip(col, reversed(powers))], top)

    a_series = [unscaled(col) for col in a]
    a_series.append(Series.one(order))
    return a_series, [unscaled(col) for col in b]


def _char_poly(kinds: Kinds, T: Series, order: int) -> tuple[list[Series], int]:
    """The coefficients, by power of X, of ``char_factor``'s polynomial, and its delta.

    T enters only through kinds of two or more offsets.
    """
    kinds = [(w, offs) for w, offs in kinds if w]
    if all(o >= 0 for _, offs in kinds for o in offs):
        raise DegenerateCharacteristic("no downward offset: the level recurrence does not decay in X")
    delta, up = _span(kinds)
    weights: dict[int, dict[int, Fraction]] = {}  # power of T -> power of X -> summed weight
    for w, offs in kinds:
        row = weights.setdefault(len(offs) - 1, {})
        for o in offs:
            row[o + delta] = row.get(o + delta, 0) + w
    f = [Series.zero(order)] * (delta + up + 1)
    f[delta] = Series.one(order)
    t_p = Series.one(order)  # T^p, for p = 0, 1, ... in turn
    for p in range(max(weights) + 1):
        if p:
            t_p = t_p * T
        z_t = t_p.shift_up(1).truncate(order)
        for e, w in weights.get(p, {}).items():
            f[e] = f[e] - z_t * w
    return f, delta


def char_factor(kinds: Kinds, T: Series, order: int) -> SmallFactor:
    """Small factor of a kind list's characteristic polynomial, mod z^order.

    Linearizing the level system of ``levels`` at T_j = T(1 - X^j) gives
    X^delta = z sum_k w_k T^(|O_k|-1) sum_(o in O_k) X^(o+delta), delta
    the deepest downward offset.  Moved to one side it reduces to X^delta
    at z=0, so ``hensel_factor_pair`` splits off the monic factor of
    degree c = delta, whose roots are the small branches; at c = 1 the
    root X is ``elementary[0]``.  A kind list with no downward offset,
    where X = 0 solves the equation, raises ``DegenerateCharacteristic``.
    """
    f, c = _char_poly(kinds, T, order)
    a, _ = hensel_factor_pair(f, c)
    return SmallFactor(c, tuple(-a[c - k] if k % 2 else a[c - k] for k in range(1, c + 1)))


def family_base(kinds: Kinds, order: int) -> tuple[SmallFactor, Series]:
    """The small factor and the tree root T of a kind list, mod z^order: the pair
    every closed form starts from.  At c = 1 the decay rate X is ``elementary[0]``."""
    T = tree_root(kinds, order)
    return char_factor(kinds, T, order), T


def hensel_small_factor(steps: StepSet, order: int) -> SmallFactor:
    """Small factor of X^c (1 - z P(X)), mod z^order: each step a one-offset kind."""
    steps.require_two_sided()
    return char_factor([(w, (b,)) for b, w in steps.steps], Series.one(order), order)


def complete_homogeneous(sf: SmallFactor, f_max: int) -> list[Series]:
    """h_0..h_f_max of the small-factor roots, via the e-to-h recurrence."""
    order = sf.order
    h: list[Series] = [Series.one(order)]
    for f in range(1, f_max + 1):
        acc = Series.zero(order)
        for k in range(1, min(f, sf.c) + 1):
            term = sf.elementary[k - 1] * h[f - k]
            acc = acc + (term if k % 2 == 1 else -term)
        h.append(acc)
    return h
