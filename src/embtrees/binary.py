"""The five-weight family of plane-embedded binary trees.

Nodes come in seven kinds: three unary kinds placing the child at offset
-1, +1 (weight v1 each) or 0 (weight v2), and four binary kinds placing
the two children at offsets (-1,+1) with weight w1, (0,0) with weight w2,
and (0,-1) / (0,+1) with weight w3.  T_j is the generating function of
trees whose labels respect a bound at level j; the module computes it by
the level recurrence, by the one-parameter closed-form family, and by
independent enumeration oracles.  The expansion coefficients of the
binary, height and ternary families come from the one unit-divisor
recurrence ``levels.alpha_recurrence``, given each family's kind list
(``_node_kinds``, ``_height_kinds``, ``_ternary_kinds``); this module
keeps their known closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    DegenerateCharacteristic,
    DegenerateWeights,
    DivisionByNonUnit,
    InsufficientPrecision,
    NoPowerSeriesBranch,
    SizeTooLarge,
)
from .kernel import SeriesPoly, newton_solve, tree_root
from .levels import _x_powers, alpha_recurrence, label_spectra, level_residual, level_rows
from .marker import MarkerSeries
from .series import Q, Series, as_fraction, rational_sqrt

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

    def require_matched_weights(self) -> None:
        if self.w2 != self.w3:
            raise DegenerateWeights("closed form needs matching middle weights w2 = w3")
        if self.w1 == 0 and self.w2 == 0 and self.w3 == 0:
            raise DegenerateWeights("closed form excludes the all-zero binary weights")


def binary_T(w: BinaryWeights, order: int) -> Series:
    """Root series T = 1 + z*linear*T + z*quadratic*T^2."""
    return tree_root({1: w.linear, 2: w.quadratic}, order)


def binary_X(w: BinaryWeights, order: int) -> Series:
    """Decay-rate series of the linearized level recurrence.

    Solves X = z*(r*(1+X^2) + s*X) with r = v1 + (w1+w3)T and
    s = v2 + 2(w2+w3)T; X has zero constant term and non-negative
    coefficients.
    """
    if w.v1 == 0 and w.w1 == 0 and w.w3 == 0:
        raise DegenerateCharacteristic(
            "no off-level couplings: the level recurrence does not decay in X"
        )
    g = order + 3
    T = binary_T(w, g)
    one = Series.one(g)
    z = Series.z(g)
    r = T * (w.w1 + w.w3) + w.v1
    s = T * (2 * (w.w2 + w.w3)) + w.v2
    rad = (one - z * s) ** 2 - (z * r) ** 2 * 4
    num = one - z * s - rad.sqrt()
    return (num / (z * r * 2)).truncate(order)


def binary_char_residual(w: BinaryWeights, X: Series, T: Series) -> Series:
    """X - z*(r*(1+X^2) + s*X); zero iff X solves the characteristic equation."""
    order = min(X.order, T.order)
    X, T = X.truncate(order), T.truncate(order)
    z = Series.z(order)
    r = T * (w.w1 + w.w3) + w.v1
    s = T * (2 * (w.w2 + w.w3)) + w.v2
    return X - z * (r * (Series.one(order) + X * X) + s * X)


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
    return level_rows(_node_kinds(w), boundary, j_max, order)


# ---------------------------------------------------------------------------
# Expansion coefficients (the one-point decay coefficients)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaTable:
    """Decay coefficients alpha_1..alpha_n_max as z-series.

    The first coefficient is normalized to 1; by homogeneity the general
    table is recovered by scaling entry n with a1^n.
    """

    mode: str
    values: tuple[Series, ...]

    def value(self, n: int, a1: Series | None = None) -> Series:
        base = self.values[n - 1]
        if a1 is None:
            return base
        return base * a1**n


def binary_alpha(w: BinaryWeights, mode: str, n_max: int, order: int) -> AlphaTable:
    """Decay coefficients by recurrence or by the known closed forms.

    Modes: "recurrence" (any weights with v1+w1+w3 > 0 and some w nonzero),
    "matched_closed" (requires w2 = w3), "w3_closed" (requires w1 = w2 = 0).
    """
    if w.w1 == 0 and w.w2 == 0 and w.w3 == 0:
        raise DegenerateWeights("need at least one binary node kind")
    T = binary_T(w, order)
    X = binary_X(w, order)
    if mode == "recurrence":
        return AlphaTable(mode, tuple(alpha_recurrence(_node_kinds(w), X, T, n_max)))
    one = Series.one(order)
    xp = _x_powers(X, 2 * n_max)
    # alpha_n = ratio^(n-1) head_n
    if mode == "matched_closed":
        w.require_matched_weights()
        fac = one / T * w.v1 + (w.w1 + w.w2)
        shell = X * w.w1 + (one + X + xp[2]) * w.w2
        ratio = shell * X / (fac * (one - X) ** 2 * (one + X + xp[2]) * (one + X))
        heads = [(one - xp[n]) / (one - X) for n in range(1, n_max + 1)]
    elif mode == "w3_closed":
        if w.w1 != 0 or w.w2 != 0:
            raise DegenerateWeights("this closed form needs w1 = w2 = 0")
        if w.w3 == 0:
            raise DegenerateWeights("this closed form needs w3 > 0")
        fac = one / T * w.v1 + w.w3
        ratio = X * w.w3 / (fac * (one - X) ** 2 * (one + X + xp[2]))
        heads = [(one - xp[2 * n]) / ((one - X) * (one + X)) for n in range(1, n_max + 1)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return AlphaTable(mode, tuple(map(mul, _x_powers(ratio, n_max - 1), heads)))


def t_of_x_identity(w: BinaryWeights, order: int) -> bool:
    """Check that T is recovered from X alone.

    Eliminating z between the tree equation and the characteristic
    equation leaves t2 T^2 - t1 T - L = 0 with

        t1 = w1(1+X^2) + 2 w2 X + w3(1+X)^2 - v1(1-X)^2,
        t2 = w1(1-X+X^2) + w2 X + w3(1+X^2),
        L  = v1(1+X^2) + v2 X,

    whose power-series root is (t1 + sqrt(t1^2 + 4 t2 L)) / (2 t2).
    """
    X = binary_X(w, order)
    T = binary_T(w, order)
    one = Series.one(order)
    x2 = X * X
    t1 = (
        (one + x2) * w.w1
        + X * (2 * w.w2)
        + (one + X) ** 2 * w.w3
        - (one - X) ** 2 * w.v1
    )
    t2 = (one - X + x2) * w.w1 + X * w.w2 + (one + x2) * w.w3
    ell = (one + x2) * w.v1 + X * w.v2
    radicand = t1 * t1 + t2 * ell * 4
    c0 = rational_sqrt(radicand[0])
    root = (radicand / radicand[0]).sqrt() * c0
    recovered = (t1 + root) / (t2 * 2)
    return recovered.matches(T)


# ---------------------------------------------------------------------------
# One-parameter closed solution
# ---------------------------------------------------------------------------


def _closed_parts(w: BinaryWeights, order: int):
    T = binary_T(w, order)
    X = binary_X(w, order)
    one = Series.one(order)
    shell = X * w.w1 + (one + X + X * X) * w.w2
    c_num = (one / T * w.v1 + (w.w1 + w.w2)) * (one - X * X) * (one - X**3)
    return T, X, shell, c_num


def binary_Tj_closed(w: BinaryWeights, lam: Series, j: int, order: int) -> Series:
    """Closed-form level solution with free parameter lam, j >= -1.

    The parameter must carry at least order+2 coefficients (the division
    by X*shell costs up to two orders of precision) unless it is zero.
    """
    w.require_matched_weights()
    if j < -1:
        raise ValueError("level index below the boundary row")
    if lam.is_zero():
        return binary_T(w, order)
    if lam.order < order + 2:
        raise InsufficientPrecision("parameter series carries too little precision")
    g = min(order + 6, lam.order)
    T, X, shell, c_num = _closed_parts(w, g)
    one = Series.one(g)
    lam_g = lam.truncate(g)
    xp = _x_powers(X, j + 3)
    num = c_num * (lam_g * xp[j + 1])
    den = (X * shell) * (one - lam_g * xp[j + 1]) * (one - lam_g * xp[j + 2])
    rho = num / den
    if rho.order < order:
        raise InsufficientPrecision("parameter series carries too little precision")
    return (T.truncate(rho.order) * (Series.one(rho.order) - rho)).truncate(order)


def binary_Tj_closed_symbolic(
    w: BinaryWeights, j: int, order: int, lam_degree: int
) -> MarkerSeries:
    """Closed-form level solution with the free parameter kept as a marker.

    Returns the series in z with polynomial marker data of degree at most
    lam_degree.  Only defined when every marker-graded slice is a genuine
    power series, which needs (j+1) at least the valuation of X*shell.
    """
    w.require_matched_weights()
    g = order + 6
    T, X, shell, c_num = _closed_parts(w, g)
    one = Series.one(g)
    xw = X * shell
    val = xw.valuation()
    if j + 1 < val:
        raise DivisionByNonUnit(
            "marker-graded slices are not power series at this level; "
            "use a numeric parameter instead"
        )
    xp = _x_powers(X, (lam_degree + 1) * (j + 2) + 2)
    rho = MarkerSeries.zero(g)
    for m in range(lam_degree):
        piece = c_num * xp[(m + 1) * (j + 1)] * (one - xp[m + 1]) / ((one - X) * xw)
        rho = rho + MarkerSeries.series_times_marker(piece, m + 1)
    out = (MarkerSeries.one(g) - rho) * T
    return out.truncate(order)


def _closed_family_parts(w: BinaryWeights, j_max: int, order: int):
    """``parts`` of ``closed_family_residual`` at levels up to j_max."""
    T, X, shell, c_num = _closed_parts(w, order + 2)
    return T, X, shell, c_num, _x_powers(X, max(j_max + 8, 8) + 2)


def closed_family_residual(w: BinaryWeights, j: int, order: int, *, parts=None) -> MarkerSeries:
    """Level-recurrence residual of the closed solution, cleared of denominators.

    The closed T_i are rational in the free parameter; multiplying the
    recurrence at level j by X^8 * prod_k cleared(1 - lam X^k)^2 (k from j
    to j+3) turns the residual into a polynomial in the parameter with
    series coefficients.  The returned marker series is identically zero
    iff the closed family satisfies the recurrence at level j.

    It is computed at order + 2: the one step that loses precision is the
    division by X*shell, whose valuation is at most 2 (X has valuation 1,
    shell = w1 X + w2 (1 + X + X^2) at most 1), and a shorter margin
    raises when the result is cut to ``order``.
    """
    w.require_matched_weights()
    g = order + 2
    T, X, shell, c_num, xp = parts or _closed_family_parts(w, j, order)
    z = Series.z(g)
    levels = [j, j + 1, j + 2, j + 3]
    m_of = {k: max(0, -k) for k in levels}
    cleared = {
        k: MarkerSeries.from_series(xp[m_of[k]])
        - MarkerSeries.series_times_marker(xp[k + m_of[k]], 1)
        for k in levels
    }
    d_hat = MarkerSeries.one(g)
    for k in levels:
        d_hat = d_hat * cleared[k]
    xw = X * shell

    def rho_cleared(i: int) -> MarkerSeries:
        others = [k for k in levels if k not in (i + 1, i + 2)]
        exponent = 5 + i + m_of[i + 1] + m_of[i + 2]
        base = c_num * xp[exponent] / xw
        out = MarkerSeries.series_times_marker(base, 1)
        for k in others:
            out = out * cleared[k]
        return out

    x4d = d_hat * xp[4]
    theta = {i: (x4d - rho_cleared(i)) * T for i in (j - 1, j, j + 1)}
    total = theta[j] * x4d - x4d * x4d
    linear = MarkerSeries.zero(g)
    if w.v1:
        linear = linear + (theta[j - 1] + theta[j + 1]) * w.v1
    if w.v2:
        linear = linear + theta[j] * w.v2
    total = total - linear * x4d * z
    quad = MarkerSeries.zero(g)
    if w.w1:
        quad = quad + theta[j - 1] * theta[j + 1] * w.w1
    if w.w2:
        quad = quad + theta[j] * theta[j] * w.w2
    if w.w3:
        quad = quad + theta[j] * (theta[j - 1] + theta[j + 1]) * w.w3
    total = total - quad * z
    return total.truncate(order)


def adapt_lambda(w: BinaryWeights, boundary_value: int, order: int) -> Series:
    """Free parameter making the boundary row equal 0 or 1.

    The boundary condition is quadratic in the parameter; the power-series
    branch is the one vanishing at z=0, found by Newton iteration and then
    verified by substituting back into the closed solution.
    """
    w.require_matched_weights()
    if boundary_value not in (0, 1):
        raise ValueError("boundary value must be 0 or 1")
    g = order + 6
    T, X, shell, c_num = _closed_parts(w, g)
    one = Series.one(g)
    s1 = (T - boundary_value) * shell * X
    qa = s1 * X
    qb = -(s1 * (one + X)) - T * c_num
    qc = s1
    lam = newton_solve(SeriesPoly.make([qc, qb, qa]), 0)
    check = binary_Tj_closed(w, lam, -1, order)
    if not check.matches(Series.constant(boundary_value, order)):
        raise NoPowerSeriesBranch(
            "no parameter branch reproduces the requested boundary row"
        )
    return lam.truncate(order)


# ---------------------------------------------------------------------------
# Conjectured closed form at w = (*, *, 1, 0, 1)
# ---------------------------------------------------------------------------


def conjecture_polynomials(n_max: int) -> list[dict[int, Fraction]]:
    """p_1..p_n_max as sparse univariate polynomials (degree -> coeff)."""

    def mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for da, ca in a.items():
            for db, cb in b.items():
                out[da + db] = out.get(da + db, _ZERO) + ca * cb
        return {d: c for d, c in out.items() if c != 0}

    def sub(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
        out = dict(a)
        for d, c in b.items():
            out[d] = out.get(d, _ZERO) - c
        return {d: c for d, c in out.items() if c != 0}

    p: list[dict[int, Fraction]] = [
        {0: Q(1)},
        {0: Q(1)},
        {4: Q(1), 3: Q(2), 1: Q(2), 0: Q(1)},
    ]
    while len(p) < n_max:
        k = len(p) + 1  # index of the polynomial being built (1-based)
        if k % 2 == 0:
            n = k // 2  # p_{2n} = p_{2n-1} - 2 X^2 p_{2n-2}
            nxt = sub(p[2 * n - 2], mul({2: Q(2)}, p[2 * n - 3]))
        else:
            n = (k - 1) // 2  # p_{2n+1} = p_{n+2) p_{n+1} - 4 X^4 p_n p_{n-1}
            nxt = sub(
                mul(p[n + 1], p[n]),
                mul({4: Q(4)}, mul(p[n - 1], p[n - 2])),
            )
        p.append(nxt)
    return p[:n_max]


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
        T = binary_T(w, order)
        X = binary_X(w, order)
        rec = alpha_recurrence(_node_kinds(w), X, T, n_max)
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


def height_T(v1, v2, order: int) -> Series:
    """T = 1 + z(v1+v2)T + zT^2."""
    return tree_root({1: as_fraction(v1) + as_fraction(v2), 2: 1}, order)


def height_X(v1, v2, order: int) -> Series:
    """X = z(v1+T) / (1 - z(v2+T))."""
    v1, v2 = as_fraction(v1), as_fraction(v2)
    T = height_T(v1, v2, order)
    z = Series.z(order)
    one = Series.one(order)
    return z * (T + v1) / (one - z * (T + v2))


def height_Tj(v1, v2, lam: Series, j: int, order: int) -> Series:
    """Closed solution T(1 - (v1/T+1)(1-X) lam X^j / (1 - lam X^(j+1))).

    The parameter must carry at least ``order`` coefficients.
    """
    if j < 0:
        raise ValueError("height levels start at 0")
    if lam.order < order:
        raise InsufficientPrecision(
            f"parameter series carries {lam.order} coefficients, below the order {order}")
    v1, v2 = as_fraction(v1), as_fraction(v2)
    g = order + 2
    T = height_T(v1, v2, g)
    X = height_X(v1, v2, g)
    one = Series.one(g)
    lam_g = Series(lam.coeffs, g) if lam.order >= g else lam
    xp = _x_powers(X, j + 2)
    rho = (one / T * v1 + 1) * (one - X) * lam_g * xp[j] / (one - lam_g * xp[j + 1])
    return (T * (one - rho)).truncate(order)


def height_plane_trees(j: int, order: int) -> Series:
    """Generating function of plane trees of height <= j (edges marked)."""
    T = height_T(0, 0, order + 2)
    X = T - Series.one(order + 2)
    xp = _x_powers(X, j + 2)
    one = Series.one(order + 2)
    return (T * (one - xp[j + 1]) / (one - xp[j + 2])).truncate(order)


def height_alpha(v1, v2, mode: str, n_max: int, order: int) -> AlphaTable:
    """Decay coefficients of the height recurrence (closed or recomputed)."""
    v1, v2 = as_fraction(v1), as_fraction(v2)
    T = height_T(v1, v2, order)
    X = height_X(v1, v2, order)
    if mode == "closed":  # alpha_n = (X / ((v1/T + 1)(1 - X)))^(n-1)
        ratio = X / ((Series.one(order) / T * v1 + 1) * (Series.one(order) - X))
        return AlphaTable(mode, tuple(_x_powers(ratio, n_max - 1)[:n_max]))
    if mode == "recurrence":
        return AlphaTable(mode, tuple(alpha_recurrence(_height_kinds(v1, v2), X, T, n_max)))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Ternary family with unary couplings
# ---------------------------------------------------------------------------


def ternary_T(v1, v2, order: int) -> Series:
    """T = 1 + z(2 v1 + v2) T + z T^3."""
    return tree_root({1: 2 * as_fraction(v1) + as_fraction(v2), 3: 1}, order)


def ternary_X(v1, v2, order: int) -> Series:
    """Characteristic root of the ternary level recurrence (zero at z=0)."""
    v1, v2 = as_fraction(v1), as_fraction(v2)
    T = ternary_T(v1, v2, order)
    z = Series.z(order)
    one = Series.one(order)
    t2 = T * T
    outer = z * (t2 + v1)
    eq = SeriesPoly.make([outer, z * (t2 + v2) - one, outer])
    return newton_solve(eq, 0)


def ternary_alpha(v1, v2, n_max: int, order: int) -> AlphaTable:
    """Decay coefficients of the ternary level system (no closed form known)."""
    v1, v2 = as_fraction(v1), as_fraction(v2)
    alphas = alpha_recurrence(_ternary_kinds(v1, v2), ternary_X(v1, v2, order),
                              ternary_T(v1, v2, order), n_max)
    return AlphaTable("recurrence", tuple(alphas))


def ternary_level_residual(v1, v2, alphas: AlphaTable, j: int, order: int) -> Series:
    """Residual of the ternary level system for the truncated expansion.

    T_i is approximated by T(1 - sum_n alpha_n X^(i n)); the residual at
    level j vanishes up to the order where the dropped tail (n beyond the
    table, entering through level j-1) starts contributing, which is at
    least j*(n_max+1) - 1.
    """
    v1, v2 = as_fraction(v1), as_fraction(v2)
    return level_residual(_ternary_kinds(v1, v2), alphas.values, ternary_X(v1, v2, order),
                          ternary_T(v1, v2, order), j, order)


# ---------------------------------------------------------------------------
# Enumeration oracles
# ---------------------------------------------------------------------------

def _node_kinds(w: BinaryWeights) -> list[tuple[Fraction, tuple[int, ...]]]:
    kinds = []
    if w.v1:
        kinds.append((w.v1, (-1,)))
        kinds.append((w.v1, (1,)))
    if w.v2:
        kinds.append((w.v2, (0,)))
    if w.w1:
        kinds.append((w.w1, (-1, 1)))
    if w.w2:
        kinds.append((w.w2, (0, 0)))
    if w.w3:
        kinds.append((w.w3, (0, -1)))
        kinds.append((w.w3, (0, 1)))
    return kinds


def _height_kinds(v1: Fraction, v2: Fraction) -> list[tuple[Fraction, tuple[int, ...]]]:
    """T_j = 1 + z(v1 T_(j-1) + v2 T_j + T_(j-1) T_j)."""
    return [(w, offs) for w, offs in ((v1, (-1,)), (v2, (0,)), (Q(1), (-1, 0))) if w]


def _ternary_kinds(v1: Fraction, v2: Fraction) -> list[tuple[Fraction, tuple[int, ...]]]:
    """T_j = 1 + z(v1 (T_(j-1) + T_(j+1)) + v2 T_j + T_(j-1) T_j T_(j+1))."""
    return [(w, offs) for w, offs in ((v1, (-1,)), (v1, (1,)), (v2, (0,)), (Q(1), (-1, 0, 1)))
            if w]


def _extreme_spectra(
    w: BinaryWeights, n_max: int, mode: str
) -> list[dict[int, Fraction]]:
    """spectra[n][m]: weight of size-n trees whose extreme label is m; see ``label_spectra``."""
    return label_spectra(_node_kinds(w), n_max, mode)


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
    spectra = spectra or _extreme_spectra(w, n_max, "max" if boundary else "min")
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
