"""The level system shared by every label-bounded tree family.

A family is a list of node kinds, each a weight and the label offsets of
the node's children: T_j = 1 + z * sum over kinds of w * prod over the
offsets o of T_{j+o}.  The binary and d-ary families differ only in
their kind lists and in the value pinned on the rows below level 0.
``level_rows`` solves that system coefficientwise; ``label_spectra``
counts the same trees by shape and extreme label, the oracle the rows
are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

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
    offsets = [o for _, offs in kinds for o in offs]
    depth = max([1] + [-o for o in offsets])
    up = max([0] + offsets)
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
