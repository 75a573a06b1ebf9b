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
T^arity cancels, and ``recomputed_sums`` recomputes each alpha_n in Q[X],
as a cleared sum and its divisor, from the closed claims below n, never from
its own outputs, so degrees stay linear in n; ``recomputed_alphas`` divides.

A one-parameter family T_j = T(1 - rho_j) is proved for every level and
parameter at once by ``level_identity``: the level equation is a list of
T-coefficients over Q[X, lam, Y], Y = X^j, pseudo-reduced by T's relation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import prod
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
        keyed = [(tuple(sorted(parts)), parts) for parts in splits(size)]
        for combo in itertools.combinations(offsets, size):
            for key, parts in keyed:
                yield key, combo, parts


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
            counts[key, delta * n + sum(map(mul, combo, parts))] += (-1) ** len(key)
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


def recomputed_sums(kinds: Kinds, first, pair, nums):
    """(most, acc_n, D_n), n = 2..N, on kinds of one arity: from the claims alpha_n = nums[n-1]
    / (first pair^(n-1)) in X, alpha_n = acc_n / (first^most pair^n D_n), D_n the divisor; acc_n
    sums the terms with s parts times first^(most-s) pair^s, most the most parts a term has."""
    arities = {len(offs) for _, offs in kinds}
    if len(arities) != 1:
        raise ValueError(f"the closed-form recurrence needs one arity, not {sorted(arities)}")
    (arity,) = arities

    def poly(terms: dict[int, int]) -> MultiPoly:
        return MultiPoly._normed(first.variables, {(e,): c for e, c in terms.items()}, 1)

    first_pows, pair_pows = _x_powers(first, arity), _x_powers(pair, arity)
    cofactors = {(most, s): first_pows[most - s] * pair_pows[s]
                 for most in range(2, arity + 1) for s in range(2, most + 1)}
    products = {(g,): num for g, num in enumerate(nums, 1)}
    for n in range(2, len(nums) + 1):
        most = min(n, arity)
        divisor, numerators = alpha_terms(kinds, n)
        by_size: dict[int, MultiPoly] = {}
        for (key, _), terms in numerators.items():
            term = _memo_product(products, nums, key) * poly(terms)
            by_size[len(key)] = by_size[len(key)] + term if len(key) in by_size else term
        acc = sum((cofactors[most, s] * total for s, total in by_size.items()),
                  MultiPoly.zero(first.variables))
        yield most, acc, poly(divisor[arity])


def recomputed_alphas(kinds: Kinds, first, pair, nums) -> list[RationalFunction]:
    """alpha_2..alpha_N of ``recomputed_sums``, both sides times X^(delta n)."""
    x = [MultiPoly.monomial(first.variables, (_span(kinds)[0] * n,)) for n in range(len(nums) + 1)]
    return [RationalFunction(acc * x[n], first**most * pair**n * x[n] * divisor)
            for n, (most, acc, divisor) in enumerate(recomputed_sums(kinds, first, pair, nums), 2)]


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


def level_equation(kinds: Kinds, rows: dict, j: int, z):
    """T_j - 1 - z sum_k w_k prod_(o in O_k) T_(j+o) on the rows {i: T_i}, in their ring."""
    return rows[j] - 1 - sum(reduce(mul, [rows[j + o] for o in offs]) * w for w, offs in kinds) * z


IDENTITY_RING = ("X", "lam", "Y")  # decay rate, parameter, Y = X^j


def level_identity(kinds: Kinds, rows: dict, relation: list) -> bool:
    """True when the rows {o: T_(j+o)} solve the level equation at every level and parameter.

    Row o is ({t: c_t}, den), T_(j+o) = sum_t c_t T^t / den, and ``relation`` lists T's
    relation over Q[X], lowest power first, all in ``IDENTITY_RING`` (Y stands for X^j).
    With z = (T - 1) / sum_k w_k T^|O_k|, the equation times sum_k w_k T^|O_k| is kept as
    T-coefficient lists, one per multiset of dens: no product carries T.  The power of T all
    terms share (z T^m, m the smallest arity, if all rows have the factor T) and the
    relation's are dropped, as T(0) = 1; each list is pseudo-reduced (lead^k N = q relation
    + rest, one k for all) and the rests cleared over the dens, fewest first (B T - A gives
    A T_j/T - B - (A - B) prod T_(j+o)/T): zero rests prove the equation at the root T.
    """
    groups: dict[frozenset, dict[int, MultiPoly]] = {}

    def add(dens: list, coeffs: dict, shift: int, scale) -> None:  # scale T^shift coeffs
        group = groups.setdefault(frozenset(Counter(dens).items()), {})
        for t, c in coeffs.items():
            group[t + shift] = group[t + shift] + c * scale if t + shift in group else c * scale

    zero, one = MultiPoly.zero(IDENTITY_RING), MultiPoly.const(IDENTITY_RING, 1)
    for w, offs in kinds:
        dens = [rows[o][1] for o in offs]
        product = reduce(_t_product, [rows[o][0] for o in offs])
        add(dens, product, 1, -w)
        add(dens, product, 0, w)
        add([rows[0][1]], rows[0][0], len(offs), w)
        add([], {0: one}, len(offs), -w)
    low = min((t for g in groups.values() for t, c in g.items() if not c.is_zero()), default=0)
    groups = {key: {t - low: c for t, c in g.items()} for key, g in groups.items()}
    *below, lead = relation[next(i for i, r in enumerate(relation) if not r.is_zero()):]
    for top in range(max(t for g in groups.values() for t in g), len(below) - 1, -1):
        for g in groups.values():
            high = g.pop(top, zero)
            for t, c in g.items():
                g[t] = c * lead
            for t, r in enumerate(below, top - len(below)):
                g[t] = g.get(t, zero) - high * r
    rests, held = [zero] * len(below), Counter()
    for key in sorted(groups, key=lambda key: sum(k for _, k in key)):
        dens = Counter(dict(key))
        up, fill = (prod(((held | dens) - part).elements(), start=1) for part in (held, dens))
        rests = [r * up + groups[key].get(t, zero) * fill for t, r in enumerate(rests)]
        held |= dens
    return all(r.is_zero() for r in rests)


def _t_product(a: dict, b: dict) -> dict:
    """The product of two polynomials in T given as {power: coefficient}."""
    out: dict = {}
    for (s, c), (t, d) in itertools.product(a.items(), b.items()):
        out[s + t] = out[s + t] + c * d if s + t in out else c * d
    return out


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
