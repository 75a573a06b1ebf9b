"""The level system shared by every label-bounded tree family.

A family is a list of node kinds, each a weight and the label offsets of
the node's children: T_j = 1 + z * sum over kinds of w * prod over the
offsets o of T_{j+o}.  The binary and d-ary families differ only in
their kind lists and in the value pinned on the rows below level 0.
``level_equation`` is the one written form of that system, on rows in any
exact ring; ``level_rows`` solves it coefficientwise; ``label_spectra``
counts the same trees by shape and extreme label, the oracle the rows
are checked against.

The single-branch expansion T_j = T(1 - sum_n alpha_n X^(jn)) of the
system has one coefficient recurrence, tabled by ``alpha_terms``.  With
delta the deepest downward offset, and the characteristic equation
substituted for T X^delta / z, its divisor is a unit:

    alpha_n sum_k w_k T^|O_k| sum_(o in O_k) (X^((delta+o)n) - X^(delta n+o))
      = sum_k w_k T^|O_k| sum_(S in O_k, |S| >= 2) (-1)^|S|
          sum_(compositions m of n over S) prod alpha_m X^(sum (o+delta)m).

``alpha_recurrence`` solves it in series.  When every kind has one arity,
T^arity cancels, and ``recomputed_alphas`` proves closed claims in Q(X):
it recomputes each alpha_n from the claims below n, never from its own
outputs, so degrees stay linear in n.

A one-parameter family T_j = T(1 - rho_j) is proved for every level and
parameter at once by ``level_identity``, on ``level_equation`` in
Q(X, lam, Y)[T] with Y = X^j, given T's relation over Q(X).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import mul

from .counts import COUNTS
from .multipoly import MultiPoly, RationalFunction
from .series import Q, Series, over_lcm

Kinds = list[tuple[Fraction, tuple[int, ...]]]

_ZERO = Q(0)
_ONE = Q(1)
_NEG_INF = -(10**9)


def _product_coeff(factors, m: int) -> int:
    """[z^m] of the product of the coefficient lists ``factors``.

    Every factor but the last is multiplied out to degree m; the last
    enters through one dot product.
    """
    *head, last = factors
    if not head:
        return last[m]
    prefix = head[0][: m + 1]
    for f in head[1:]:
        prefix = [sum(map(mul, prefix[: k + 1], f[k::-1])) for k in range(m + 1)]
    return sum(map(mul, prefix, last[m::-1]))


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers with the given sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _terms_by_multiset(offsets, max_size: int, splits):
    """Every term of a graded sum, keyed by the multiset of its parts.

    Yields (key, combo, parts) for each subset ``combo`` of 2..max_size
    offsets and each ordered split ``parts`` from ``splits(len(combo))``;
    ``key`` is the sorted tuple of the parts, the one thing the product of
    a term's lower coefficients depends on.
    """
    for size in range(2, max_size + 1):
        for combo in itertools.combinations(offsets, size):
            for parts in splits(size):
                yield tuple(sorted(parts)), combo, parts


def _x_powers(X, k_max: int, first=None) -> list:
    """first, first X, ..., first X^k_max in X's exact ring; ``first`` is 1 by default."""
    xp = [X**0 if first is None else first]
    for _ in range(k_max):
        xp.append(xp[-1] * X)
    return xp


def _span(kinds: Kinds) -> tuple[int, int]:
    """The deepest downward offset (at least 1) and the highest upward one (at least 0)."""
    offsets = [o for _, offs in kinds for o in offs]
    return max([1] + [-o for o in offsets]), max([0] + offsets)


def alpha_terms(kinds: Kinds, n: int):
    """Degree n of the expansion recurrence, as integer X-polynomials {exponent: coefficient}.

    Returns (divisor, numerators): divisor[a] multiplies T^a, and
    numerators[(key, a)] multiplies T^a and the alphas over the multiset
    ``key`` of parts.  Both sides carry the weights times the lcm of their
    denominators.
    """
    delta, _ = _span(kinds)
    divisor: dict[int, dict[int, int]] = {}
    numerators: dict[tuple, dict[int, int]] = {}
    lifted, _ = over_lcm([w.as_integer_ratio() for w, _ in kinds])
    for w, (_, offs) in zip(lifted, kinds):
        counts: Counter = Counter()  # signed, by (key, exponent); the divisor's key is ()
        for o in offs:
            counts[(), (delta + o) * n] += 1
            counts[(), delta * n + o] -= 1
        for key, combo, parts in _terms_by_multiset(
                offs, min(n, len(offs)), lambda size: _compositions(n, size)):
            counts[key, sum((o + delta) * m for o, m in zip(combo, parts))] += (-1) ** len(key)
        for (key, e), c in counts.items():
            poly = (numerators.setdefault((key, len(offs)), {}) if key
                    else divisor.setdefault(len(offs), {}))
            poly[e] = poly.get(e, 0) + w * c
    return divisor, numerators


def _x_poly(xp: list[Series], poly: dict[int, int]) -> Series:
    """The sum of c X^e over the integer polynomial {e: c}, in one pass."""
    es = [e for e, c in poly.items() if c]
    scales, den = over_lcm([(poly[e], xp[e]._den) for e in es])
    nums = [sum(map(mul, scales, column)) for column in zip(*(xp[e]._num for e in es))]
    return Series._normed(nums, den) if es else Series.zero(xp[0].order)


def alpha_recurrence(kinds: Kinds, X: Series, T: Series, n_max: int) -> list[Series]:
    """alpha_1 = 1, ..., alpha_n_max of the single-branch expansion, in series.

    X is the small root of the characteristic equation, where the
    degree-1 divisor vanishes, and T the root; the table keeps their
    order.  Both sides are divided by T to the smallest arity, and each
    multiset of parts makes one product of alphas.
    """
    order = min(X.order, T.order)
    X, T = X.truncate(order), T.truncate(order)
    xp = _x_powers(X, sum(_span(kinds)) * n_max)
    low = min(len(offs) for _, offs in kinds)
    t_pows = {len(offs): T ** (len(offs) - low) for _, offs in kinds}
    one = Series.one(order)
    alphas, products = [one], {(): one}

    def t_weighted(parts: dict[int, Series]) -> Series:  # sum of T^(a - low) parts[a]
        return sum(s * t_pows[a] if a > low else s for a, s in parts.items())

    for n in range(2, n_max + 1):
        divisor, numerators = alpha_terms(kinds, n)
        rhs: dict[int, Series] = {}
        for (key, a), poly in numerators.items():
            above_one = tuple(g for g in key if g > 1)  # alpha_1 = 1 enters no product
            rhs[a] = rhs.get(a, 0) + _x_poly(xp, poly) * _memo_product(products, alphas, above_one)
        alphas.append(t_weighted(rhs) / t_weighted({a: _x_poly(xp, p) for a, p in divisor.items()}))
        products[(n,)] = alphas[-1]
    return alphas


def _memo_product(products: dict, factors: list, key: tuple[int, ...]):
    """prod factors[g - 1] over the sorted parts g of ``key``, memoised with its prefixes."""
    known = len(key)
    while key[:known] not in products:
        known -= 1
    for end in range(known + 1, len(key) + 1):
        products[key[:end]] = products[key[:end - 1]] * factors[key[end - 1] - 1]
    return products[key]


def recomputed_alphas(kinds: Kinds, first, pair, nums) -> list[RationalFunction]:
    """alpha_2..alpha_N recomputed from the claims alpha_n = nums[n-1] / (first pair^(n-1)),
    polynomials in X, on kinds of one arity (see the module docstring).  The terms are
    summed by their number of parts s, each sum times first^(l-s) pair^s, over the
    denominator first^l pair^n X^(delta n), l the most parts a term has."""
    arities = {len(offs) for _, offs in kinds}
    if len(arities) != 1:
        raise ValueError(f"the closed-form recurrence needs one arity, not {sorted(arities)}")
    (arity,) = arities
    delta, _ = _span(kinds)

    def poly(terms: dict[int, int]) -> MultiPoly:
        return MultiPoly._normed(first.variables, {(e,): c for e, c in terms.items()}, 1)

    first_pows, pair_pows = _x_powers(first, arity), _x_powers(pair, len(nums))
    products = {(g,): num for g, num in enumerate(nums, 1)}
    alphas = []
    for n in range(2, len(nums) + 1):
        most = min(n, arity)
        divisor, numerators = alpha_terms(kinds, n)
        by_size: dict[int, MultiPoly] = {}
        for (key, _), terms in numerators.items():
            term = _memo_product(products, nums, key) * poly(terms)
            by_size[len(key)] = by_size[len(key)] + term if len(key) in by_size else term
        acc = sum((first_pows[most - s] * pair_pows[s] * total for s, total in by_size.items()),
                  MultiPoly.zero(first.variables))
        x_delta = poly({delta * n: 1})
        rhs = RationalFunction(acc, first_pows[most] * pair_pows[n] * x_delta)
        alphas.append(rhs / RationalFunction(poly(divisor[arity]), x_delta))
    return alphas


def level_residual(kinds: Kinds, alphas, X: Series, T: Series, j: int, order: int) -> Series:
    """T_j - 1 - z sum_k w_k prod_(o in O_k) T_(j+o) for T_i = T(1 - sum_n alpha_n X^(in)).

    With alpha_1..alpha_n_max given, the dropped tail enters through level
    j - delta, so the residual vanishes below (j - delta)(n_max + 1) + 1.
    """
    delta, up = _span(kinds)
    if j < delta:
        raise ValueError(f"the expansion needs level j >= {delta}")
    X, T = X.truncate(order), T.truncate(order)
    xp = _x_powers(X, (j + up) * len(alphas))
    rows = {i: T - T * sum(a * xp[i * n] for n, a in enumerate(alphas, 1))
            for i in range(j - delta, j + up + 1)}
    return level_equation(kinds, rows, j, Series.z(order))


def level_equation(kinds: Kinds, rows: dict, j: int, z, den=None):
    """T_j - 1 - z sum_k w_k prod_(o in O_k) T_(j+o) on the rows {i: T_i}, in their ring.

    The products of each arity are summed first.  Rows over a common
    denominator, T_i = rows[i] / den, are multiplied through by den^A, A
    the largest arity, so that the equation stays in the rows' ring.
    """
    by_arity: dict = {}
    for w, offs in kinds:
        term = reduce(mul, [rows[j + o] for o in offs]) * w
        by_arity[len(offs)] = by_arity[len(offs)] + term if len(offs) in by_arity else term
    if den is None:
        return rows[j] - 1 - sum(by_arity.values()) * z
    top = max(by_arity)
    powers = [1] + _x_powers(den, top - 1, den)  # the scalar 1, then den .. den^top
    total = sum(s * powers[top - a] for a, s in by_arity.items())
    return rows[j] * powers[top - 1] - powers[top] - total * z


IDENTITY_RING = ("X", "lam", "Y", "T")  # decay rate, parameter, Y = X^j, root


def level_identity(kinds: Kinds, rows: dict, relation: MultiPoly, den=None) -> bool:
    """True when the rows {o: T_(j+o)} solve the level equation at every level and parameter.

    The rows (``level_equation``'s inputs at j = 0), ``den`` and T's relation
    over Q(X) are in ``IDENTITY_RING``, where Y stands for X^j.  z is read off
    the tree equation, z = (T - 1) / sum_k w_k T^|O_k|, and the equation's
    numerator N is pseudo-reduced in T by the relation: lead^k N = q relation
    + rest, so a zero rest makes N vanish at the root T, for every j and lam.
    """
    T = MultiPoly.var(IDENTITY_RING, "T")
    z = RationalFunction(T - 1, sum(T ** len(offs) * w for w, offs in kinds))
    rest = level_equation(kinds, rows, 0, z, den).num
    m, lead = _lead_in_t(relation)
    while not rest.is_zero():
        deg, top = _lead_in_t(rest)
        if deg < m:
            return False
        rest = rest * lead - top * T ** (deg - m) * relation
    return True


def _lead_in_t(p: MultiPoly) -> tuple[int, MultiPoly]:
    """p's degree in T, the last variable, and the coefficient of that power."""
    deg = max(e[-1] for e in p._num)
    return deg, MultiPoly._normed(p.variables, {e[:-1] + (0,): c for e, c in p._num.items()
                                                if e[-1] == deg}, p._den)


def level_rows(kinds: Kinds, pin: int, j_max: int, order: int) -> dict[int, Series]:
    """Rows T_-depth..T_j_max of the level system, computed coefficientwise.

    The rows below level 0, down to the deepest downward offset (at least
    one row), are pinned to the constant ``pin``.  Coefficient n of row j
    reads coefficients below n of rows up to j + (highest upward offset),
    so rows up to j_max are exact below z^order once coefficient n is
    filled for the rows j <= j_max + (order - 1 - n) * (highest offset);
    nothing above that cone is computed.  With the weights scaled by L, the
    lcm of their denominators, coefficient n is an integer over L^n.
    """
    depth, up = _span(kinds)
    top = j_max + (order - 1) * up
    lifted, scale = over_lcm([w.as_integer_ratio() for w, _ in kinds])
    rows = [[pin] + [0] * (order - 1) for _ in range(depth)]
    rows += [[1] + [0] * (order - 1) for _ in range(top + 1)]
    # coefficient n reads only coefficients below n, so rows update in place
    for n in range(1, order):
        for j in range(j_max + (order - 1 - n) * up + 1):
            rows[j + depth][n] = sum(
                w * _product_coeff([rows[j + o + depth] for o in offs], n - 1)
                for w, (_, offs) in zip(lifted, kinds)
            )
    powers = [scale**k for k in range(order - 1, -1, -1)]  # coefficient n over L^(order-1)
    return {j: Series._normed(list(map(mul, rows[j + depth], powers)), powers[0])
            for j in range(-depth, j_max + 1)}


def label_spectra(kinds: Kinds, n_max: int, mode: str) -> list[dict[int, Fraction]]:
    """spectra[n][m]: total weight of the size-n trees whose extreme label is m.

    Labels are relative to the root at 0.  Mode "max": m is the largest
    internal-node label, and the empty tree scores -infinity (empty slots
    are unconstrained).  Mode "min": m is the smallest position over the
    internal nodes and the empty-subtree slots, and the empty tree scores
    0.  The recursion runs over tree shapes, never over levels, so it is
    independent of ``level_rows``.
    """
    COUNTS["levels.label_spectra"] += 1
    if mode == "max":
        empty, pick = _NEG_INF, max
    elif mode == "min":
        empty, pick = 0, min
    else:
        raise ValueError(f"unknown mode {mode!r}")
    spectra: list[dict[int, Fraction]] = [{empty: _ONE}]
    for n in range(1, n_max + 1):
        spec: dict[int, Fraction] = {}
        for weight, offsets in kinds:
            # forest[(used, m)]: the children folded so far hold `used`
            # nodes, and m is their extreme label together with the root's
            forest = {(0, 0): weight}
            for i, off in enumerate(offsets):
                nxt: dict[tuple[int, int], Fraction] = {}
                for (used, m_f), cf in forest.items():
                    left = n - 1 - used
                    sizes = range(left + 1) if i < len(offsets) - 1 else (left,)
                    for size in sizes:
                        for m_c, cc in spectra[size].items():
                            key = (used + size, pick(m_f, m_c + off))
                            nxt[key] = nxt.get(key, _ZERO) + cf * cc
                forest = nxt
            for (_, m), c in forest.items():
                spec[m] = spec.get(m, _ZERO) + c
        spectra.append(spec)
    return spectra
