"""Embedded trees of odd arity 2d+1 and even arity 2d.

Odd-arity nodes place their children at offsets -d..d; even-arity nodes
at the odd offsets -(2d-1), ..., -1, 1, ..., 2d-1.  The label-bounded
generating functions T_j are computed by the level recurrence with
boundary rows pinned to 1, by a rational one-parameter closed family
(whose rows ``levels.level_identity`` proves for every level and
parameter at once), and by the multi-branch expansion-coefficient tables of the
general solution, checked against the exact level equation.  The
closed single-branch coefficients are claims in the one shape of
``levels.recomputed_alphas``, which proves them on the family's kind list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InsufficientPrecision, SizeTooLarge
from .kernel import family_base
from .levels import (IDENTITY_RING, Kinds, _terms_by_multiset, label_spectra, level_equation,
                     level_rows)
from .multipoly import MultiPoly, RationalFunction
from .series import Q, Series
from .splitting import SAElement, SplitAlgebra

_ZERO = Q(0)


@dataclass(frozen=True)
class DaryFamily:
    """kind "odd": arity 2d+1, offsets -d..d; kind "even": arity 2d."""

    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in ("odd", "even"):
            raise ValueError("kind must be 'odd' or 'even'")
        if self.d < 1:
            raise ValueError("d must be positive")
        if self.arity < 2:
            raise ValueError("arity must be at least 2")

    @property
    def arity(self) -> int:
        return 2 * self.d + 1 if self.kind == "odd" else 2 * self.d

    @property
    def offsets(self) -> tuple[int, ...]:
        if self.kind == "odd":
            return tuple(range(-self.d, self.d + 1))
        return tuple(
            sorted([2 * l - 1 for l in range(1, self.d + 1)]
                   + [-(2 * l - 1) for l in range(1, self.d + 1)])
        )

    @property
    def kinds(self) -> Kinds:
        """The one node kind, of weight 1."""
        return [(Q(1), self.offsets)]

    @property
    def branch_count(self) -> int:
        """Number of small characteristic branches: d (odd) or 2d-1 (even)."""
        return self.d if self.kind == "odd" else 2 * self.d - 1


def dary_Tj_recurrence(fam: DaryFamily, j_max: int, order: int) -> dict[int, Series]:
    """Rows T_-depth..T_j_max of the label-bound system.

    The boundary rows are pinned to 1; see ``levels.level_rows``.
    """
    return level_rows(fam.kinds, 1, j_max, order)


# ---------------------------------------------------------------------------
# Characteristic factor and rational parametrization
# ---------------------------------------------------------------------------


def dary_rational_parametrization(
    fam: DaryFamily,
) -> tuple[RationalFunction, RationalFunction]:
    """Exact rational forms T(X) and z(X) satisfying both defining equations.

    Eliminating z between T = 1 + z T^arity and the characteristic
    equation gives, with q = arity - 1 and c the branch count:

        odd:  z T^q = X^d (1-X) / (1-X^(2d+1)),
        even: z T^q = X^(2d-1) (1-X^2) / (1-X^(4d)),

    and in both cases T = A/(A - N) where z T^q = N/A.
    """
    X = MultiPoly.var(("X",), "X")
    one = MultiPoly.const(("X",), 1)
    d = fam.d
    if fam.kind == "odd":
        big_a = one - X ** (2 * d + 1)
        num = X**d * (one - X)
    else:
        big_a = one - X ** (4 * d)
        num = X ** (2 * d - 1) * (one - X**2)
    big_b = big_a - num
    t_of_x = RationalFunction(big_a, big_b)
    q = fam.arity - 1
    z_of_x = RationalFunction(num * big_b**q, big_a ** (q + 1))
    return t_of_x, z_of_x


def one_param_solution(fam: DaryFamily) -> RationalFunction:
    """Level solution T_j/T as a rational function of (X, lam, Y), Y = X^j.

    Numerator exponents are d+1 and 2d+3 (odd) / 3d+4 (even); denominator
    exponents d+2, 2d+2 (odd) / d+3, 3d+2 (even).
    """
    variables = ("X", "lam", "Y")
    d = fam.d
    if fam.kind == "odd":
        up = (d + 1, 2 * d + 3)
        down = (d + 2, 2 * d + 2)
    else:
        up = (d + 1, 3 * d + 4)
        down = (d + 3, 3 * d + 2)

    def factor(e: int) -> MultiPoly:
        return MultiPoly.const(variables, 1) - MultiPoly.monomial(
            variables, (e, 1, 1)
        )

    num = factor(up[0]) * factor(up[1])
    den = factor(down[0]) * factor(down[1])
    return RationalFunction(num, den)


def one_param_rows(fam: DaryFamily):
    """Rows T sol(X^(o + delta) Y) of the closed family at each offset o and at 0, and
    T's relation B T - A: ``levels.level_identity``'s inputs, in its ring, where Y
    stands for X^(j - delta), delta the deepest downward offset, so no X power is negative.
    """
    sol, delta = one_param_solution(fam), -min(fam.offsets)

    def lifted(p: MultiPoly, shift: int) -> MultiPoly:  # Y -> X^shift Y
        return MultiPoly(IDENTITY_RING, {(ex + shift * ey, el, ey): c
                                         for (ex, el, ey), c in p.terms.items()})

    rows = {o: ({1: lifted(sol.num, o + delta)}, lifted(sol.den, o + delta))
            for o in {0, *fam.offsets}}
    t_of_x = dary_rational_parametrization(fam)[0]
    big_a, big_b = (MultiPoly(IDENTITY_RING, {(k, 0, 0): c for (k,), c in p.terms.items()})
                    for p in (t_of_x.num, t_of_x.den))
    return rows, [-big_a, big_b]


# ---------------------------------------------------------------------------
# One-branch expansion coefficients as rational functions
# ---------------------------------------------------------------------------


def _one_param_parts(fam: DaryFamily, n_max: int):
    """first, pair and num_1..num_n_max with alpha_n = num_n / (first pair^(n-1)), the
    claims that ``levels.recomputed_alphas`` proves on the family's kind list."""
    def x(k: int) -> MultiPoly:
        return MultiPoly.monomial(("X",), (k,))

    d = fam.d
    step, xpow, lead = (d, 1, d + 1) if fam.kind == "odd" else (2 * d - 1, 2, 2 * d + 1)
    nums = [x(xpow * (n - 1)) * (x(0) - x(n * step)) for n in range(1, n_max + 1)]
    return x(0) - x(step), (x(0) - x(xpow)) * (x(0) - x(lead)), nums


def dary_alpha_one_param_closed(fam: DaryFamily, n_max: int) -> list[RationalFunction]:
    """Closed single-branch coefficients alpha_1..alpha_n_max (alpha_1 = 1).

    odd:  alpha_n = X^(n-1) (1-X^(n d)) / ((1-X^d)(1-X)^(n-1)(1-X^(d+1))^(n-1))
    even: alpha_n = X^(2(n-1)) (1-X^(n(2d-1)))
                    / ((1-X^(2d-1))(1-X^2)^(n-1)(1-X^(2d+1))^(n-1))
    """
    first, pair, nums = _one_param_parts(fam, n_max)
    return [RationalFunction(num, first * pair**n) for n, num in enumerate(nums)]


# ---------------------------------------------------------------------------
# General multi-branch expansion table
# ---------------------------------------------------------------------------


@dataclass
class MultiAlphaTable:
    """Expansion coefficients indexed by branch multi-indices.

    Entries live in the root algebra of the characteristic small factor;
    the zero index is 0 by convention and unit vectors hold the seeds.
    """

    family: DaryFamily
    bound: int
    algebra: SplitAlgebra
    root: Series  # the tree series T the table was built with
    entries: dict[tuple[int, ...], SAElement] = field(default_factory=dict)

    def entry(self, index: tuple[int, ...]) -> SAElement:
        return self.entries[index]


def _multi_indices(c: int, bound: int):
    """Nonzero multi-indices with |n| <= bound, by increasing weight."""
    out = []
    for total in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(range(c), total):
            idx = [0] * c
            for k in combo:
                idx[k] += 1
            out.append(tuple(idx))
    return out


def _splits(index: tuple[int, ...], parts: int):
    """Ordered tuples of nonzero multi-indices summing to index."""
    c = len(index)
    if parts == 1:
        if any(index):
            yield (index,)
        return
    ranges = [range(0, k + 1) for k in index]
    for head in itertools.product(*ranges):
        if not any(head):
            continue
        rest = tuple(index[i] - head[i] for i in range(c))
        if sum(rest) < parts - 1:
            continue
        for tail in _splits(rest, parts - 1):
            yield (head,) + tail


def _relative_order(x: SAElement) -> int:
    """The stored order below which a product with x reads its other factor."""
    return x.stored_order - (x.valuation() or 0)


def dary_alpha_general(
    fam: DaryFamily, bound: int, seeds: list[Series], order: int
) -> MultiAlphaTable:
    """Fill the expansion table for all multi-indices of weight <= bound.

    Each non-seed entry is the graded piece of the exact level equation:
    the subset sums over offset choices multiply the lower-order entries,
    and the divisor is inverted through the geometric device that makes
    it a unit times -z T^(arity-1).  The product of a term's entries
    depends only on the multiset of its parts, so the root monomials of
    the terms are summed per multiset first, and each multiset makes one
    product of its (cached) entry product with that sum.  The divisor's
    clearing factor X^(c_down n) is folded into those monomials, so no
    root power is negative, and each monomial sum and inverse is built
    only to the precision its product reads.

    The table is built at ``order + 1`` stored orders, the one order that
    dividing by z T^(arity-1) costs.  Seeds are cut to that many
    coefficients and never padded: a seed known to fewer keeps its own
    stored order, and a seed or entry whose stored order ends up below
    ``order`` raises ``InsufficientPrecision``.
    """
    c = fam.branch_count
    if len(seeds) != c:
        raise ValueError(f"need {c} seed series")
    # precision is tracked, not padded for: every element keeps the stored
    # order it is known to, and an entry short of ``order`` raises below
    work = order + 1
    small, T = family_base(fam.kinds, work)
    zT = Series.z(work) * T ** (fam.arity - 1)
    alg = SplitAlgebra(small)
    table = MultiAlphaTable(fam, bound, alg, T)
    offsets = fam.offsets
    c_down = -min(offsets)
    unit_vectors = []
    for g in range(c):
        idx = [0] * c
        idx[g] = 1
        unit_vectors.append(tuple(idx))
    for g, vec in enumerate(unit_vectors):
        table.entries[vec] = alg.from_series(seeds[g].truncate(min(work, seeds[g].order)))
    prod_cache: dict[tuple, SAElement] = {}

    def alpha_product(key: tuple[tuple[int, ...], ...]) -> SAElement:
        """The product of the entries at a sorted tuple of parts."""
        got = prod_cache.get(key)
        if got is None:
            got = table.entries[key[0]]
            for p in key[1:]:
                got = got * table.entries[p]
            prod_cache[key] = got
        return got

    for index in _multi_indices(c, bound):
        if index in table.entries:
            continue
        groups: dict[tuple, list[tuple[int, ...]]] = {}
        terms = _terms_by_multiset(
            offsets, min(sum(index), len(offsets)), lambda size: _splits(index, size)
        )
        for key, combo, parts in terms:
            # the parts sum to index, so X^(c_down n) adds c_down to each offset
            exps = tuple(sum((o + c_down) * g[k] for o, g in zip(combo, parts))
                         for k in range(c))
            groups.setdefault(key, []).append(exps)
        rhs = alg.zero()
        for key, group in groups.items():
            product = alpha_product(key)
            short = _relative_order(product)
            monos = sum((alg.monomial(exps, short) for exps in group), alg.zero())
            # zero-padded: the padding meets only coefficients of product
            # below its valuation, which are zero
            term = product * monos.with_order(product.stored_order)
            rhs = rhs + (term if len(key) % 2 == 0 else -term)
        # the entry rhs * inv reads inv only below need, rhs's relative order
        need = _relative_order(rhs)
        # divisor: -1/(z T^q) + sum over offsets of X^(o.n); multiply by
        # -zT^q and clear X^(c_down n) to expose the unit 1 + u, built to
        # the order the inverse needs (dividing by zT costs lead one order)
        lead = alg.monomial(tuple(c_down * k for k in index), need + 1)
        u = alg.zero()
        for o in offsets:
            if o == -c_down:
                continue
            u = u + alg.monomial(tuple((o + c_down) * k for k in index), need)
        u = u - SAElement(alg, {e: s / zT for e, s in lead.coeffs.items()})
        inv = alg.invert_one_plus(u, need)
        # zero-padded back to rhs's stored order: the padding meets only the
        # zero coefficients of rhs below its valuation, so none is read
        kept = min(rhs.stored_order, inv.stored_order + rhs.stored_order - need)
        table.entries[index] = rhs * inv.with_order(kept)
    short = next((index for index, entry in table.entries.items()
                  if entry.stored_order < order), None)
    if short is not None:
        what = f"seed {unit_vectors.index(short)}" if short in unit_vectors else f"entry {short}"
        raise InsufficientPrecision(
            f"{what} is known to {table.entries[short].stored_order} orders, below {order}")
    return table


def _horner_sum(entries: dict[tuple[int, ...], SAElement], powers: list[SAElement],
                g: int) -> SAElement:
    """The sum of alpha_n prod_(k >= g) powers[k]^(n_k) over ``entries``, {n: alpha_n}.

    Horner's rule in powers[g]: the entries are grouped by n_g, and each
    group's sum over the later generators is one coefficient of the
    polynomial in powers[g].  At g = c one entry is left.
    """
    if g == len(powers):
        (alpha,) = entries.values()
        return alpha
    groups: dict[int, dict] = {}
    for index, alpha in entries.items():
        groups.setdefault(index[g], {})[index] = alpha
    top = max(groups)
    acc = _horner_sum(groups[top], powers, g + 1)
    for k in range(top - 1, -1, -1):
        acc = acc * powers[g]
        if k in groups:
            acc = acc + _horner_sum(groups[k], powers, g + 1)
    return acc


def rho_series(table: MultiAlphaTable, j: int, order: int) -> Series:
    """The symmetric level-j expansion sum rho_j = sum_n alpha_n X^(j n) as a plain series.

    With Y_g = X_g^j, rho_j is a polynomial in Y_1..Y_c with the entries
    as coefficients, evaluated by Horner's rule one generator at a time:
    about one product per entry, and no root monomial per entry.  The
    result is known to min(order, the entries' stored orders).
    """
    if j < 0:
        raise ValueError("rho extraction needs a non-negative level")
    alg = table.algebra
    powers = [_cut(alg.gen_power(g, j), order) for g in range(alg.c)]
    entries = {index: _cut(alpha, order) for index, alpha in table.entries.items()}
    return _horner_sum(entries, powers, 0).as_series(order)


def _cut(x: SAElement, order: int) -> SAElement:
    return x.with_order(order) if x.stored_order > order else x


@dataclass(frozen=True)
class MainEquationReport:
    ok: bool
    first_failure: tuple[int, int] | None  # (level, z-order)


def verify_main_equation(
    fam: DaryFamily,
    bound: int,
    order: int,
    seeds: list[Series] | None = None,
    levels: tuple[int, ...] | None = None,
) -> MainEquationReport:
    """Check the exact level equation for the truncated expansion table.

    On the rows T_i = T(1 - rho_i), as T = 1 + z T^arity, the level equation
    is the unit -T times rho_j - z T^(arity-1) (1 - prod_o (1 - rho_(j+o))).
    With seeds of valuation s the dropped tail has valuation above
    (bound+1)*s, so the residual must vanish through min(order,
    (bound+1)*s) - 1; seeds default to z^(order // (bound+1) + 1).
    """
    c = fam.branch_count
    if seeds is None:
        s_val = order // (bound + 1) + 1
        seeds = [Series.z(order + 1) ** s_val for _ in range(c)]
    table = dary_alpha_general(fam, bound, seeds, order)
    c_down = -min(fam.offsets)
    if levels is None:
        levels = (c_down, c_down + 1)
    T = table.root.truncate(order)
    rows = {i: T - T * rho_series(table, i, order)
            for i in range(min(levels) - c_down, max(levels) + max(fam.offsets) + 1)}
    for j in levels:
        val = level_equation(fam.kinds, rows, j, Series.z(order)).valuation()
        if val is not None:
            return MainEquationReport(False, (j, val))
    return MainEquationReport(True, None)


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------


def brute_force_dary(fam: DaryFamily, j: int, n_max: int, *, spectra=None) -> list[Fraction]:
    """Label-bounded counts by structural enumeration over tree shapes.

    Counts trees with root label 0 and every internal label at most j
    (empty slots are unconstrained), sizes 0..n_max.
    """
    if n_max > 8:
        raise SizeTooLarge("d-ary structural enumeration is capped at size 8")
    spectra = spectra or label_spectra(fam.kinds, n_max, "max")
    return [
        sum((cnt for m, cnt in spec.items() if m <= j), _ZERO) for spec in spectra
    ]
