"""The five-weight family of plane-embedded binary trees.

Nodes come in seven kinds: three unary kinds placing the child at offset
-1, +1 (weight v1 each) or 0 (weight v2), and four binary kinds placing
the two children at offsets (-1,+1) with weight w1, (0,0) with weight w2,
and (0,-1) / (0,+1) with weight w3.  T_j is the generating function of
trees whose labels respect a bound at level j; the module computes it by
the level recurrence, by the one-parameter closed-form family (proved for
every level and parameter by ``levels.level_identity``), and by
independent enumeration oracles.  The binary, height and ternary families
are kind lists (``BinaryWeights.kinds``, ``_height_kinds``,
``_ternary_kinds``): each one's T and decay rate X come from
``kernel.family_base``, and its expansion coefficients from the one
unit-divisor recurrence ``levels.alpha_recurrence``.  The known closed
coefficients are claims alpha_n = num_n / (first pair^(n-1)), given by
their parts in X's ring (pair as pair T's coefficients where it reads
1/T), which the campaign proves in Q(X)[T] on ``levels.t_relation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateWeights,
    InsufficientPrecision,
    NoPowerSeriesBranch,
    SizeTooLarge,
)
from .kernel import SeriesPoly, family_base, newton_solve, tree_root
from .levels import IDENTITY_RING, Kinds, _x_powers, alpha_recurrence, label_spectra, level_rows
from .multipoly import MultiPoly
from .series import Q, Series, as_fraction

_ZERO = Q(0)


@dataclass(frozen=True)
class BinaryWeights:
    v1: Fraction
    v2: Fraction
    w1: Fraction
    w2: Fraction
    w3: Fraction

    @classmethod
    def make(cls, v1=0, v2=0, w1=0, w2=0, w3=0) -> BinaryWeights:
        vals = [as_fraction(v) for v in (v1, v2, w1, w2, w3)]
        if any(v < 0 for v in vals):
            raise DegenerateWeights("weights must be non-negative")
        return cls(*vals)

    @property
    def linear(self) -> Fraction:
        return 2 * self.v1 + self.v2

    @property
    def quadratic(self) -> Fraction:
        return self.w1 + self.w2 + 2 * self.w3

    @property
    def kinds(self) -> Kinds:
        """The seven node kinds with their weights, zero weights left out."""
        kinds = [(self.v1, (-1,)), (self.v1, (1,)), (self.v2, (0,)), (self.w1, (-1, 1)),
                 (self.w2, (0, 0)), (self.w3, (0, -1)), (self.w3, (0, 1))]
        return [(w, offs) for w, offs in kinds if w]

    def require_matched_weights(self) -> None:
        if self.w2 != self.w3:
            raise DegenerateWeights("closed form needs matching middle weights w2 = w3")
        if self.w1 == 0 and self.w2 == 0 and self.w3 == 0:
            raise DegenerateWeights("closed form excludes the all-zero binary weights")


# ---------------------------------------------------------------------------
# Level recurrence
# ---------------------------------------------------------------------------


def binary_Tj_recurrence(
    w: BinaryWeights, boundary: int, j_max: int, order: int
) -> dict[int, Series]:
    """Rows T_-1..T_j_max of the level system, computed coefficientwise.

    The boundary row T_-1 is pinned to 0 or 1; see ``levels.level_rows``.
    """
    if boundary not in (0, 1):
        raise ValueError("boundary must be 0 or 1")
    return level_rows(w.kinds, boundary, j_max, order)


# ---------------------------------------------------------------------------
# Closed decay coefficients, the claims the alpha prover reads
# ---------------------------------------------------------------------------


def _pair(v1, rest, poly):
    """pair = (v1/T + rest) poly: poly rest, or pair T's coefficients [v1 poly, rest poly]."""
    return [poly * v1, poly * rest] if v1 else poly * rest


def _matched_parts(w: BinaryWeights, X, n_max: int):
    """alpha_n = (X shell)^(n-1) (1 - X^n) / ((1 - X) (fac (1-X)^2 (1+X+X^2) (1+X))^(n-1)),
    shell = w1 X + w2 (1+X+X^2), fac = v1/T + w1 + w2; it needs w2 = w3."""
    w.require_matched_weights()
    one, xp = X**0, _x_powers(X, max(n_max, 2))
    cyc = one + X + xp[2]
    shells = _x_powers(_closed_shell(w, X), n_max - 1)
    nums = [(one - xp[n]) * s for n, s in zip(range(1, n_max + 1), shells)]
    return one - X, _pair(w.v1, w.w1 + w.w2, (one - X) ** 2 * cyc * (one + X)), nums


def _w3_parts(w: BinaryWeights, X, n_max: int):
    """alpha_n = (w3 X)^(n-1) (1 - X^(2n)) / ((1 - X)(1 + X) (fac (1-X)^2 (1+X+X^2))^(n-1)),
    fac = v1/T + w3; it needs w1 = w2 = 0 < w3."""
    if w.w1 != 0 or w.w2 != 0:
        raise DegenerateWeights("this closed form needs w1 = w2 = 0")
    if w.w3 == 0:
        raise DegenerateWeights("this closed form needs w3 > 0")
    one, xp = X**0, _x_powers(X, 2 * n_max)
    scales = _x_powers(X * w.w3, n_max - 1)
    nums = [(one - xp[2 * n]) * s for n, s in zip(range(1, n_max + 1), scales)]
    return (one - X) * (one + X), _pair(w.v1, w.w3, (one - X) ** 2 * (one + X + xp[2])), nums


def _height_parts(v1, X, n_max: int):
    """alpha_n = X^(n-1) / ((v1/T + 1)(1 - X))^(n-1)."""
    return X**0, _pair(v1, 1, X**0 - X), _x_powers(X, n_max - 1)[:n_max]


_CLOSED_PARTS = {"matched_closed": _matched_parts, "w3_closed": _w3_parts}


def _t_relation(w: BinaryWeights, X):
    """t1, t2 and L of T's relation t2 T^2 - t1 T - L = 0 over Q(X) as displayed, in X's ring,
    which binary/t-of-x proves is -1 times ``levels.t_relation`` of the kinds (over T if L = 0):
    t1 = w1(1+X^2) + 2 w2 X + w3(1+X)^2 - v1(1-X)^2, t2 = w1(1-X+X^2) + w2 X + w3(1+X^2),
    L = v1(1+X^2) + v2 X."""
    one, x2 = X**0, X * X
    t1 = (one + x2) * w.w1 + X * (2 * w.w2) + (one + X) ** 2 * w.w3 - (one - X) ** 2 * w.v1
    t2 = (one - X + x2) * w.w1 + X * w.w2 + (one + x2) * w.w3
    return t1, t2, (one + x2) * w.v1 + X * w.v2


# ---------------------------------------------------------------------------
# One-parameter closed solution
# ---------------------------------------------------------------------------


def _closed_shell(w: BinaryWeights, X):
    """X shell, shell = w1 X + w2 (1 + X + X^2), in X's ring."""
    return (X * w.w1 + (X**0 + X + X * X) * w.w2) * X


def _closed_factor(w: BinaryWeights, X, T):
    """(v1 + (w1 + w2) T)(1 - X^2)(1 - X^3), T times the closed family's c_num, in X's ring."""
    return (T * (w.w1 + w.w2) + w.v1) * (X**0 - X * X) * (X**0 - X**3)


def _closed_parts(w: BinaryWeights, order: int):
    """T, X, X shell and c_num = v1/T + w1 + w2 times (1 - X^2)(1 - X^3), as series."""
    small, T = family_base(w.kinds, order)
    X = small.elementary[0]
    return T, X, _closed_shell(w, X), _closed_factor(w, X, T) / T


def _closed_row(parts, lam: Series, j: int, order: int) -> Series:
    """Row j of the closed family mod z^order, from ``_closed_parts`` and lam at one order."""
    T, X, xw, c_num = parts
    one = Series.one(T.order)
    xp = _x_powers(X, j + 3)
    rho = c_num * (lam * xp[j + 1]) / (xw * (one - lam * xp[j + 1]) * (one - lam * xp[j + 2]))
    if rho.order < order:
        raise InsufficientPrecision("parameter series carries too little precision")
    return (T.truncate(rho.order) * (Series.one(rho.order) - rho)).truncate(order)


def binary_Tj_closed(w: BinaryWeights, lam: Series, j: int, order: int) -> Series:
    """Closed-form level solution with free parameter lam, j >= -1.

    The parameter must carry at least order+2 coefficients (the division
    by X*shell costs up to two orders of precision) unless it is zero.
    """
    w.require_matched_weights()
    if j < -1:
        raise ValueError("level index below the boundary row")
    if lam.is_zero():
        return tree_root(w.kinds, order)
    if lam.order < order + 2:
        raise InsufficientPrecision("parameter series carries too little precision")
    g = min(order + 6, lam.order)
    return _closed_row(_closed_parts(w, g), lam.truncate(g), j, order)


def closed_family_rows(w: BinaryWeights):
    """Rows j-1, j, j+1 of the closed family: ``levels.level_identity``'s input, in its ring
    (Y = X^j).

    T_i = T - factor lam Y X^(i+1) / (X shell p_(i+1) p_(i+2)), p_k = 1 - lam Y X^k,
    factor = T c_num, linear in T; over den = X shell p_0 p_1 p_2 p_3 no row divides by T.
    """
    w.require_matched_weights()
    X, lam, Y = (MultiPoly.var(IDENTITY_RING, v) for v in IDENTITY_RING)
    p = [1 - lam * Y * X**k for k in range(4)]
    den = _closed_shell(w, X) * p[0] * p[1] * p[2] * p[3]
    at_zero = _closed_factor(w, X, 0) * lam * Y  # factor = at_zero + slope T
    slope = _closed_factor(w, X, 1) * lam * Y - at_zero

    def row(i: int):  # T den - factor X^(i+1) times the two other p_k, over den
        a, b = (p[k] for k in range(4) if k not in (i + 1, i + 2))
        rest = X ** (i + 1) * a * b
        return {0: -(at_zero * rest), 1: den - slope * rest}, den

    return {i: row(i) for i in (-1, 0, 1)}


def adapt_lambda(w: BinaryWeights, boundary_value: int, order: int) -> Series:
    """Free parameter making the boundary row equal 0 or 1, mod z^(order + 6).

    The boundary condition is quadratic in the parameter; the power-series
    branch is the one vanishing at z=0, found by Newton iteration and then
    verified on the closed solution's boundary row mod z^order, from the same base.
    """
    w.require_matched_weights()
    if boundary_value not in (0, 1):
        raise ValueError("boundary value must be 0 or 1")
    g = order + 6
    parts = T, X, xw, c_num = _closed_parts(w, g)
    one = Series.one(g)
    s1 = (T - boundary_value) * xw
    qa = s1 * X
    qb = -(s1 * (one + X)) - T * c_num
    qc = s1
    lam = newton_solve(SeriesPoly.make([qc, qb, qa]), 0)
    if _closed_row(parts, lam, -1, order) != Series.constant(boundary_value, order):
        raise NoPowerSeriesBranch("no parameter branch reproduces the requested boundary row")
    return lam


# ---------------------------------------------------------------------------
# Conjectured closed form at w = (*, *, 1, 0, 1)
# ---------------------------------------------------------------------------


def conjecture_polynomials(n_max: int) -> list[dict[int, Fraction]]:
    """p_1..p_n_max as sparse univariate polynomials (degree -> coeff)."""
    ring = ("X",)
    one = MultiPoly.const(ring, 1)
    p = [one, one, MultiPoly(ring, {(4,): 1, (3,): 2, (1,): 2, (0,): 1})]
    two_x2, four_x4 = MultiPoly.monomial(ring, (2,), 2), MultiPoly.monomial(ring, (4,), 4)
    while len(p) < n_max:
        k = len(p) + 1  # index of the polynomial being built (1-based)
        if k % 2 == 0:
            n = k // 2  # p_{2n} = p_{2n-1} - 2 X^2 p_{2n-2}
            p.append(p[2 * n - 2] - two_x2 * p[2 * n - 3])
        else:
            n = (k - 1) // 2  # p_{2n+1} = p_{n+2} p_{n+1} - 4 X^4 p_n p_{n-1}
            p.append(p[n + 1] * p[n] - four_x4 * (p[n - 1] * p[n - 2]))
    return [{e: c for (e,), c in q.terms.items()} for q in p[:n_max]]


@dataclass(frozen=True)
class ConjectureReport:
    n_max: int
    order: int
    weight_samples: tuple[tuple[Fraction, Fraction], ...]
    agreements: tuple[tuple[int, bool], ...]
    status: str  # "conjecture-consistent" or "inconsistent"


def conjecture_check(
    n_max: int, order: int, v_samples=((0, 0), (1, 0), (1, 2))
) -> ConjectureReport:
    """Compare the recurrence table with the conjectured closed form.

    Runs at w1 = w3 = 1, w2 = 0 for each sampled (v1, v2).  Reports per-n
    agreement at the requested order; agreement is evidence, never proof,
    so the overall status is at best "conjecture-consistent".
    """
    polys = conjecture_polynomials(n_max)
    agreements: dict[int, bool] = {n: True for n in range(1, n_max + 1)}
    samples = tuple((as_fraction(a), as_fraction(b)) for a, b in v_samples)
    for v1, v2 in samples:
        w = BinaryWeights.make(v1, v2, 1, 0, 1)
        small, T = family_base(w.kinds, order)
        X = small.elementary[0]
        rec = alpha_recurrence(w.kinds, X, T, n_max)
        one = Series.one(order)
        xp = _x_powers(X, max(4, 2 * n_max))
        # den_n = fac^(n-1) (1-X)^(2n-2) (1+X)^(2h) (1+X^2)^h, h = (n-1)//2,
        # as a running product: every n takes one step, every odd n > 1 a pair
        step = (one / T * v1 + 2) * (one - X) ** 2
        pair = (one + X) ** 2 * (one + xp[2])
        den = one
        for n in range(1, n_max + 1):
            if n > 1:
                den = den * step if n % 2 == 0 else den * step * pair
            p_val = sum(xp[deg] * coeff for deg, coeff in polys[n - 1].items())
            closed = xp[n - 1] * p_val / den
            if not closed.matches(rec[n - 1]):
                agreements[n] = False
    ordered = tuple(sorted(agreements.items()))
    ok = all(v for _, v in ordered)
    return ConjectureReport(
        n_max=n_max,
        order=order,
        weight_samples=samples,
        agreements=ordered,
        status="conjecture-consistent" if ok else "inconsistent",
    )


# ---------------------------------------------------------------------------
# Height subfamily (single backward coupling)
# ---------------------------------------------------------------------------


def height_plane_trees(j: int, order: int, *, T: Series | None = None) -> Series:
    """Generating function of plane trees of height <= j (edges marked), from their root T."""
    T = tree_root(_height_kinds(0, 0), order + 2) if T is None else T.truncate(order + 2)
    X = T - Series.one(order + 2)
    xp = _x_powers(X, j + 2)
    one = Series.one(order + 2)
    return (T * (one - xp[j + 1]) / (one - xp[j + 2])).truncate(order)


# ---------------------------------------------------------------------------
# Enumeration oracles
# ---------------------------------------------------------------------------

def _height_kinds(v1: Fraction, v2: Fraction) -> Kinds:
    """T_j = 1 + z(v1 T_(j-1) + v2 T_j + T_(j-1) T_j)."""
    return [(w, offs) for w, offs in ((v1, (-1,)), (v2, (0,)), (Q(1), (-1, 0))) if w]


def _ternary_kinds(v1: Fraction, v2: Fraction) -> Kinds:
    """T_j = 1 + z(v1 (T_(j-1) + T_(j+1)) + v2 T_j + T_(j-1) T_j T_(j+1))."""
    return [(w, offs) for w, offs in ((v1, (-1,)), (v1, (1,)), (v2, (0,)), (Q(1), (-1, 0, 1)))
            if w]


def brute_force_embedded_binary(
    w: BinaryWeights, j: int, n_max: int, boundary: int = 1, *, spectra=None
) -> list[Fraction]:
    """Label-bounded tree counts by structural enumeration, sizes 0..n_max.

    boundary 1 counts trees with every internal label at most j (empty
    slots are free); boundary 0 counts trees with every occupied position,
    empty slots included, at least -j.  Independent of the level
    recurrence: the recursion here is over tree shapes and the extreme
    label statistic, not over boundary levels.
    """
    if n_max > 10:
        raise SizeTooLarge("structural enumeration is capped at size 10")
    if boundary not in (0, 1):
        raise ValueError("boundary must be 0 or 1")
    spectra = spectra or label_spectra(w.kinds, n_max, "max" if boundary else "min")
    return [
        sum((c for m, c in spec.items() if (m <= j if boundary else m >= -j)), _ZERO)
        for spec in spectra
    ]


def plane_tree_height_counts(n_max: int) -> list[dict[int, int]]:
    """counts[n][h]: plane trees with n edges and height exactly h.

    An edge is a node of kind (1, 0): its first child subtree hangs one
    level deeper, its second continues the list of its parent's subtrees.
    The height is the largest label plus 1, and 0 for the empty tree.
    """
    spectra = label_spectra([(Q(1), (1, 0))], n_max, "max")
    return [{max(m + 1, 0): int(c) for m, c in spec.items()} for spec in spectra]
