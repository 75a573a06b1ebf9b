"""Independent counts that judge embtrees command output.

Nothing here imports embtrees.  Every expected series comes from a direct
count written for this benchmark: a coefficient recurrence for the free
tree equation, closed binomial counts for the d-ary free family, a
recursion over tree shapes that tracks the lowest label (for label-bounded
trees), and forward step-by-step dynamic programs for lattice paths and
walker stars.  None of them uses a closed form of the program.

``check_output(argv, text)`` parses one command's stdout and compares it
exactly with the count for the same command line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

INF = None  # lowest label of the empty tree when only internal nodes count


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_series(text: str, fmt: str) -> list[Fraction]:
    """Coefficients printed by ``--format json`` or ``--format csv``."""
    if fmt == "json":
        data = json.loads(text)
        coeffs = [Fraction(c) for c in data["coeffs"]]
        if data["order"] != len(coeffs):
            raise ValueError("order field disagrees with the coefficient count")
        return coeffs
    rows = list(csv.reader(io.StringIO(text.strip())))
    if rows[0] != ["n", "numerator", "denominator"]:
        raise ValueError(f"unexpected csv header {rows[0]}")
    coeffs = []
    for n, (idx, num, den) in enumerate(rows[1:]):
        if int(idx) != n:
            raise ValueError(f"csv row {n} is labelled {idx}")
        coeffs.append(Fraction(int(num), int(den)))
    return coeffs


def _query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("command")
    for name in ("v1", "v2", "w1", "w2", "w3"):
        parser.add_argument(f"--{name}", default="0")
    parser.add_argument("--level", type=int, default=None)
    parser.add_argument("--boundary", default=None)
    parser.add_argument("--method", default="recurrence")
    parser.add_argument("--kind")
    parser.add_argument("--d", type=int)
    parser.add_argument("--steps")
    parser.add_argument("--excursions", action="store_true")
    parser.add_argument("--mark-endpoint", action="store_true")
    parser.add_argument("--mode", default="lock-step")
    parser.add_argument("--i", type=int, default=0)
    parser.add_argument("--j", type=int, default=0)
    parser.add_argument("--u", default=None)
    parser.add_argument("--w", default=None)
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--order", type=int, default=30)
    parser.add_argument("--format", default="json")
    return parser


_PARSER = _query_parser()


def parse_query(argv) -> argparse.Namespace:
    return _PARSER.parse_args(list(argv))


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def binary_kinds(v1, v2, w1, w2, w3) -> tuple:
    """(weight, child offsets) for the seven node kinds of the binary family."""
    table = (
        (v1, (-1,)), (v1, (1,)), (v2, (0,)),
        (w1, (-1, 1)), (w2, (0, 0)), (w3, (0, -1)), (w3, (0, 1)),
    )
    return tuple((Fraction(w), offs) for w, offs in table if Fraction(w) != 0)


def dary_kinds(kind: str, d: int) -> tuple:
    if kind == "odd":
        offsets = tuple(range(-d, d + 1))
    else:
        odd = [2 * k - 1 for k in range(1, d + 1)]
        offsets = tuple(sorted(odd + [-o for o in odd]))
    return ((Fraction(1), offsets),)


def _scaled(kinds) -> tuple[tuple, int]:
    """Integer weights times a common denominator D (size-n counts scale by D^n)."""
    den = math.lcm(*(w.denominator for w, _ in kinds)) if kinds else 1
    return tuple((int(w * den), offs) for w, offs in kinds), den


def free_binary_counts(kinds, order: int) -> list[Fraction]:
    """[z^n] of T = 1 + z*lin*T + z*quad*T^2, coefficient by coefficient."""
    ints, den = _scaled(kinds)
    lin = sum(w for w, offs in ints if len(offs) == 1)
    quad = sum(w for w, offs in ints if len(offs) == 2)
    t = [1]
    for n in range(1, order):
        m = n - 1
        t.append(lin * t[m] + quad * sum(t[a] * t[m - a] for a in range(m + 1)))
    return [Fraction(c, den**n) for n, c in enumerate(t)]


def fuss_catalan_counts(arity: int, order: int) -> list[Fraction]:
    """Plane trees of the given arity by size: C(a*n, n) / ((a-1)*n + 1)."""
    return [Fraction(math.comb(arity * n, n), (arity - 1) * n + 1) for n in range(order)]


@lru_cache(maxsize=64)
def lowest_label_spectra(kinds, n_max: int, slots_count: bool) -> tuple:
    """spectra[n][m]: scaled weight of size-n trees whose lowest label is m.

    Labels are relative to the root at 0.  With ``slots_count`` the empty
    slots occupy a position too (the empty tree scores 0); otherwise only
    internal nodes count and the empty tree scores INF.  The recursion runs
    over tree shapes, one child slot at a time, never over label levels.
    """
    ints, _ = _scaled(kinds)
    empty = 0 if slots_count else INF
    spectra: list[dict] = [{empty: 1}]

    def low(a, b):
        if a is INF:
            return b
        if b is INF:
            return a
        return a if a < b else b

    for n in range(1, n_max + 1):
        spec: dict = {}
        for weight, offsets in ints:
            # forest[(size, lowest)] over the children placed so far
            forest = {(0, 0): weight}
            for pos, off in enumerate(offsets):
                last = pos == len(offsets) - 1
                nxt: dict = {}
                for (size, m), cnt in forest.items():
                    sizes = [n - 1 - size] if last else range(n - size)
                    for s in sizes:
                        for mc, cc in spectra[s].items():
                            key = (size + s, low(m, None if mc is INF else mc + off))
                            nxt[key] = nxt.get(key, 0) + cnt * cc
                forest = nxt
            for (size, m), cnt in forest.items():
                if size == n - 1:
                    spec[m] = spec.get(m, 0) + cnt
        spectra.append(spec)
    return tuple(spectra)


def bounded_tree_counts(kinds, level: int, order: int, slots_count: bool) -> list[Fraction]:
    """Trees whose lowest counted position is at least -level, sizes below order.

    By the mirror symmetry of every node-kind set used here this equals the
    count of trees whose labels never exceed ``level``.
    """
    _, den = _scaled(kinds)
    spectra = lowest_label_spectra(kinds, order - 1, slots_count)
    out = []
    for n, spec in enumerate(spectra):
        total = sum(c for m, c in spec.items() if m is INF or m >= -level)
        out.append(Fraction(total, den**n))
    return out


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


def parse_steps(text: str) -> tuple[tuple[int, Fraction], ...]:
    pairs = []
    for chunk in text.split(","):
        jump, weight = chunk.split(":")
        pairs.append((int(jump), Fraction(weight)))
    return tuple(sorted(pairs))


@lru_cache(maxsize=64)
def meander_table(steps, start: int, order: int) -> tuple:
    """table[n][k]: weight of n-step paths from ``start`` to k, never below 0."""
    den = math.lcm(*(w.denominator for _, w in steps))
    ints = [(b, int(w * den)) for b, w in steps]
    level = {start: 1}
    table = []
    for n in range(order):
        table.append({k: Fraction(c, den**n) for k, c in level.items() if c})
        nxt: dict = {}
        for k, c in level.items():
            for b, w in ints:
                if k + b >= 0:
                    nxt[k + b] = nxt.get(k + b, 0) + c * w
        level = nxt
    return tuple(table)


# ---------------------------------------------------------------------------
# Walker stars
# ---------------------------------------------------------------------------

_LOCKSTEP_MARKS = {"vicious": (0, 0), "osculating": (1, 0), "updown": (1, 1)}


def _pair_move(gap: int, lo: int, hi: int, share_dir: int):
    """(new half-gap, shared edge?) for one neighbouring pair, or None if illegal."""
    if gap == 0:
        if (lo, hi) == (-1, 1):
            return 1, False
        if lo == hi == share_dir:
            return 0, True
        return None
    new = gap + (hi - lo) // 2
    return (new, False) if new >= 0 else None


@lru_cache(maxsize=256)
def lockstep_counts(u, w, i: int, j: int, order: int) -> tuple:
    """Three lock-step walkers from half-gaps (i, j), stepping forward.

    Every co-located pair at every time (start included) weighs u, every
    shared edge weighs w: the leading pair may share down-steps and the
    trailing pair up-steps; any other contact is a crossing.  A step has at
    most two of each, so with x = p/q the factor x^k is kept as the integer
    p^k q^(2-k) and the total at step n is divided by q_u^2 (q_u q_w)^(2n).
    """
    u, w = Fraction(u), Fraction(w)

    def mark(x: Fraction, k: int) -> int:
        return x.numerator**k * x.denominator ** (2 - k)

    step_scale = (u.denominator * w.denominator) ** 2
    moves = [(m1, m2, m3) for m1 in (-1, 1) for m2 in (-1, 1) for m3 in (-1, 1)]
    states = {(i, j): mark(u, (i == 0) + (j == 0))}
    out = []
    for n in range(order):
        out.append(Fraction(sum(states.values()), u.denominator**2 * step_scale**n))
        nxt: dict = {}
        for (a, b), c in states.items():
            if not c:
                continue
            for m1, m2, m3 in moves:
                left = _pair_move(a, m1, m2, -1)
                right = _pair_move(b, m2, m3, 1) if left else None
                if right is None:
                    continue
                na, nb = left[0], right[0]
                weight = mark(w, left[1] + right[1]) * mark(u, (na == 0) + (nb == 0))
                if weight:
                    nxt[(na, nb)] = nxt.get((na, nb), 0) + c * weight
        states = nxt
    return tuple(out)


@lru_cache(maxsize=256)
def randomturn_counts(steps: str, boundary: str, i: int, j: int, order: int) -> tuple:
    """One walker of three moves per time step; gaps stay at or above the floor."""
    floor = 1 if boundary == "vicious" else 0
    if i < floor or j < floor:
        return (Fraction(0),) * order
    choices = (1, -1) if steps == "dyck" else (1, 0, -1)
    states = {(i, j): 1}
    out = []
    for _ in range(order):
        out.append(Fraction(sum(states.values())))
        nxt: dict = {}
        for (a, b), c in states.items():
            for s in choices:
                for na, nb in ((a - s, b), (a + s, b - s), (a, b + s)):
                    if na >= floor and nb >= floor:
                        nxt[(na, nb)] = nxt.get((na, nb), 0) + c
        states = nxt
    return tuple(out)


# ---------------------------------------------------------------------------
# Expected output per command line
# ---------------------------------------------------------------------------


def expected_series(q: argparse.Namespace) -> list[Fraction]:
    """The independent count for a series-valued query."""
    order = q.order
    if q.command == "trees":
        kinds = binary_kinds(q.v1, q.v2, q.w1, q.w2, q.w3)
        if q.level is None:
            return free_binary_counts(kinds, order)
        slots = (q.boundary or "one") == "zero"
        return bounded_tree_counts(kinds, q.level, order, slots)
    if q.command == "dary":
        kinds = dary_kinds(q.kind, q.d)
        if q.level is None:
            return fuss_catalan_counts(len(kinds[0][1]), order)
        return bounded_tree_counts(kinds, q.level, order, False)
    if q.command == "paths":
        table = meander_table(parse_steps(q.steps), q.level or 0, order)
        if q.excursions:
            return [row.get(q.level or 0, Fraction(0)) for row in table]
        return [sum(row.values(), Fraction(0)) for row in table]
    if q.command == "walkers":
        boundary = q.boundary or "vicious"
        if q.mode == "random-turn":
            return list(randomturn_counts(q.steps or "dyck", boundary, q.i, q.j, order))
        if boundary == "refined":
            u, w = Fraction(q.u), Fraction(q.w)
        else:
            u, w = _LOCKSTEP_MARKS[boundary]
        return list(lockstep_counts(u, w, q.i, q.j, order))
    raise ValueError(f"no independent count for {q.command!r}")


def expected_endpoint_rows(q: argparse.Namespace) -> dict[str, list[str]]:
    """Endpoint slices of ``paths --mark-endpoint`` as the command prints them."""
    table = meander_table(parse_steps(q.steps), q.level or 0, q.order)
    return {str(k): [str(row.get(k, Fraction(0))) for row in table]
            for k in sorted(set().union(*table))}


def check_output(argv, text: str) -> tuple[bool, str]:
    """Compare one command's stdout exactly with its independent count."""
    q = parse_query(argv)
    try:
        if q.command == "paths" and q.mark_endpoint:
            data = json.loads(text)
            want = expected_endpoint_rows(q)
            if data.get("order") != q.order or data.get("start") != (q.level or 0):
                return False, "header fields differ"
            got = {k: [str(Fraction(c)) for c in v] for k, v in data["rows"].items()}
            bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            if bad:
                return False, f"endpoint rows differ at level {bad[0]}"
            return True, ""
        got = parse_series(text, q.format)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unparseable output: {exc}"
    want = expected_series(q)
    if len(got) != len(want):
        return False, f"{len(got)} coefficients, expected {len(want)}"
    for n, (g, e) in enumerate(zip(got, want)):
        if g != e:
            return False, f"z^{n}: got {g}, expected {e}"
    return True, ""
