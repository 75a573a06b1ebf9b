"""Three non-crossing walkers and quarter-plane pairs.

Lock-step walkers move simultaneously with steps +-1; a star state is the
pair of half-gaps (a, b) between consecutive walkers.  The refined count
weights every (pair, time) co-location by u and every legal shared edge
by w: the leading pair may share down-steps, the trailing pair up-steps.
The boundary families are the corners (u,w) = (0,0) never-touching,
(1,0) touch-but-never-share, (1,1) touching with the legal shares free,
and their closed forms are the refined form at those corners.  Each
system's decay rate X and free series T are those of the kind list of
one-offset nodes its gap recurrence steps by, from ``kernel.family_base``.
Random-turn walkers move one at a time; the quarter-plane families count
two-dimensional paths and coincide with random-turn osculating walkers
for the six-step set.  Every star is T(1 - alpha X^a - alpha X^b -
gamma X^(a+b)) at gaps (a, b), in one form, ``_star``: lock-step models
at their adapted (alpha, gamma), random-turn and quarter-plane stars at
the vicious corner (1, -1), read one gap further out in the osculating
and quarter-plane cells.  Each is checked against the gap dynamic program;
its ``parts`` (T, T alpha X^k, T gamma X^k) are built once per family.

The dynamic programs run on integers.  Gap states are indexed shell by
shell, by their larger gap, and each step maps one integer vector to the
next.  The lock-step marks are scaled by L, the lcm of the denominators
of every transition weight, so the n-step vector is exactly L^n times the
true values.  Every move changes each gap by at most 1, so a check fills
step n only on the cone of states that its cells can still read, and
reads each cell's column as one series over L^(order-1).  The Fraction
tables and count lists are views of the same rows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .kernel import family_base
from .levels import _x_powers
from .series import Q, Series, as_fraction, over_lcm
from .steps import StepSet

_ONE = Q(1)
# each boundary model's corner (u, w) of the refined marks
_CORNERS = {"vicious": (0, 0), "osculating": (1, 0), "updown": (1, 1)}


@dataclass(frozen=True)
class WalkerModel:
    mode: str  # "lock_step" or "random_turn"
    steps: str  # "dyck" or "motzkin"
    boundary: str
    u: Fraction | None = None  # co-location mark (lock-step refined)
    w: Fraction | None = None  # shared-edge mark (lock-step refined)

    def __post_init__(self):
        if self.mode not in ("lock_step", "random_turn"):
            raise ValueError("mode must be lock_step or random_turn")
        if self.steps not in ("dyck", "motzkin"):
            raise ValueError("steps must be dyck or motzkin")
        if self.boundary not in _CORNERS and self.boundary != "refined":
            raise ValueError(f"boundary must be one of {tuple(_CORNERS)} or refined")
        if self.boundary == "updown" and self.mode != "lock_step":
            raise ValueError("up-down walkers are a lock-step model")
        if self.mode == "lock_step" and self.steps != "dyck":
            raise ValueError("lock-step walkers use dyck steps")
        if self.boundary == "refined" and self.mode != "lock_step":
            raise ValueError("refined marks are a lock-step model")
        if self.boundary == "refined" and (self.u is None or self.w is None):
            raise ValueError("the refined boundary needs both marks, --u and --w")
        if self.boundary != "refined" and (self.u is not None or self.w is not None):
            raise ValueError("the marks u and w belong to the refined boundary alone")


@dataclass(frozen=True)
class StarGF:
    i: int
    j: int
    series: Series


# ---------------------------------------------------------------------------
# Lock-step closed forms
# ---------------------------------------------------------------------------


def _unary_base(weights: dict[int, int], order: int) -> tuple[Series, Series]:
    """X and T of the step set {offset: weight}, entered as its kind list: X = z sum_o w_o
    X^(o+1) and the tree root T = 1/(1 - z sum_o w_o)."""
    small, T = family_base(StepSet.make(weights.items()).kinds, order)
    return small.elementary[0], T


def lockstep_x(order: int) -> Series:
    """X = z(2 + 4X + 2X^2), the decay rate of the gap recurrence."""
    return _lockstep_base(order)[0]


def _lockstep_base(order: int) -> tuple[Series, Series]:
    """X and T: the pieces every cell and every pair of marks share."""
    return _unary_base({-1: 2, 0: 4, 1: 2}, order)


def _refined_adapted(u, w, X: Series) -> tuple[Series, Series]:
    """The adapted (alpha, gamma) of the refined form at marks (u, w); beta is alpha."""
    u, w = as_fraction(u), as_fraction(w)
    one = Series.one(X.order)
    sq = (one + X) ** 2
    alpha = (sq - (one - X + X * X + X * w) * u) / (sq - X * (X + w) * u)
    ratio_num = (one + X) * 2 - (one + X * w) * u
    ratio_den = (one + X) * 2 - X * (1 + w) * u
    return alpha, -(alpha * ratio_num / ratio_den)


def _star_parts(base, alpha, gamma, m: int):
    """The star's ``parts`` for gaps up to m, from base = (X, T): T, and the
    terms T alpha X^k (k <= m) and T gamma X^k (k <= 2m)."""
    X, T = base
    return T, _x_powers(X, m, T * alpha), _x_powers(X, 2 * m, T * gamma)


def _gaps(i: int, j: int) -> int:
    """The larger of the gaps (i, j), which must both be non-negative."""
    if min(i, j) < 0:
        raise ValueError(f"walker gaps are non-negative, not ({i}, {j})")
    return max(i, j)


def _star(parts, a: int, b: int) -> Series:
    """The star T(1 - alpha X^a - alpha X^b - gamma X^(a+b)) at gaps (a, b)."""
    T, A, G = parts
    return T - A[a] - A[b] - G[a + b]


def _refined_parts(u, w, base, m: int):
    """``parts`` of ``lockstep_refined`` for gaps up to m, at the adapted (alpha, gamma)."""
    return _star_parts(base, *_refined_adapted(u, w, base[0]), m)


def lockstep_refined(u, w, i: int, j: int, order: int, *, parts=None) -> StarGF:
    """Refined star series with co-location mark u and shared-edge mark w."""
    m = _gaps(i, j)
    return StarGF(i, j, _star(parts or _refined_parts(u, w, _lockstep_base(order), m), i, j))


def lockstep_star(boundary: str, i: int, j: int, order: int, *, parts=None) -> StarGF:
    """Star series of a lock-step boundary model: the refined form at its corner."""
    if boundary not in _CORNERS:
        raise ValueError(f"unknown boundary {boundary!r}")
    return lockstep_refined(*_CORNERS[boundary], i, j, order, parts=parts)


# ---------------------------------------------------------------------------
# Random-turn closed forms
# ---------------------------------------------------------------------------


def _randomturn_base(steps: str, order: int) -> tuple[Series, Series]:
    """X and T of one step set, as ``randomturn_x`` gives X."""
    if steps not in ("dyck", "motzkin"):
        raise ValueError("steps must be dyck or motzkin")
    return _unary_base({-1: 2, 0: 2 if steps == "dyck" else 5, 1: 2}, order)


def randomturn_x(steps: str, order: int) -> Series:
    """dyck: X = 2z(1+X+X^2); motzkin: X = z(2+5X+2X^2)."""
    return _randomturn_base(steps, order)[0]


def _randomturn_parts(steps: str, order: int, m: int):
    """``parts`` of ``randomturn_gf`` for gaps up to m: the star at the vicious corner (1, -1)."""
    return _star_parts(_randomturn_base(steps, order), 1, -1, m)


def randomturn_gf(steps: str, boundary: str, i: int, j: int, order: int, *, parts=None) -> StarGF:
    """Vicious stars (1-X^i)(1-X^j) T; osculating stars are read one gap further out."""
    if boundary not in ("vicious", "osculating"):
        raise ValueError("random-turn boundaries are vicious or osculating")
    m, out = _gaps(i, j), int(boundary == "osculating")
    parts = parts or _randomturn_parts(steps, order, m + out)
    return StarGF(i, j, _star(parts, i + out, j + out))


# ---------------------------------------------------------------------------
# Gap dynamic programs
# ---------------------------------------------------------------------------


@functools.cache
def _lockstep_moves(a_touch: bool, b_touch: bool) -> tuple[tuple[int, int, int], ...]:
    """Legal lock-step moves (delta_a, delta_b, shared edges) from a state
    whose gaps a, b are zero exactly where ``a_touch``, ``b_touch`` say.

    The co-location factor for the NEW state is applied by the caller so
    that each (pair, time) touch counts once.
    """
    out = []
    for m1, m2, m3 in itertools.product((-1, 1), repeat=3):
        shared = 0
        ok = True
        for touch, lo, hi, share_dir in ((a_touch, m1, m2, -1), (b_touch, m2, m3, 1)):
            if touch:
                if (lo, hi) == (-1, 1):
                    pass  # departure
                elif lo == hi == share_dir:
                    shared += 1  # legal shared edge
                else:
                    ok = False  # crossing or illegal share
                    break
        if ok:
            out.append(((m2 - m1) // 2, (m3 - m2) // 2, shared))
    return tuple(out)


def _gap_rows(transitions, floor: int, radii):
    """The state index and the integer value rows of a gap DP.

    The states are the gap pairs (a, b) with floor <= a, b <= top =
    radii[0], indexed shell by shell, so the states of radius max(a, b)
    <= r come first.  ``transitions(a, b)`` yields (a', b', integer
    weight); a gap below the floor drops the move, and one beyond ``top``
    saturates there.  V_0 = 1 and V_n[s] is the sum of weight * V_(n-1)[s'],
    filled on the states of radius <= radii[n].  Every move changes each
    gap by at most 1, so radii that fall by one per row are the cone that
    the last radius reads, and V_n is exact on it; a constant radius
    fills every state.
    """
    top = radii[0]
    states = sorted(itertools.product(range(floor, top + 1), repeat=2), key=max)
    index = {s: k for k, s in enumerate(states)}
    moves = []
    for a, b in states:
        dests, weights = [], []
        for na, nb, weight in transitions(a, b):
            if na >= floor and nb >= floor and weight:
                dests.append(index[min(na, top), min(nb, top)])
                weights.append(weight)
        moves.append((dests, None if set(weights) <= {1} else weights))
    return index, _value_rows(moves, [(r - floor + 1) ** 2 for r in radii])


def _value_rows(moves, sizes):
    """Row n on the first sizes[n] states; ``weights`` None means every weight is 1."""
    row = [1] * sizes[0]
    yield row
    for size in sizes[1:]:
        get = row.__getitem__
        row = [
            sum(map(get, dests)) if weights is None
            else sum(map(mul, weights, map(get, dests)))
            for dests, weights in itertools.islice(moves, size)
        ]
        yield row


def _cone(cells, order: int) -> list[int]:
    """Row radii that read ``cells`` to ``order``: the largest gap read plus the steps left."""
    m = max(max(cell) for cell in cells)
    return [m + order - 1 - n for n in range(order)]


def _dp_columns(index, rows, cells, order: int, scale: int = 1, u=_ONE) -> dict:
    """Each cell's DP column as a Series, with u^(zero gaps of the cell).

    Row n holds scale^n times the n-step values, so coefficient n is row
    n over scale^n, put over scale^(order-1).  A cell below the floor is
    no state, and its column is zero.
    """
    keys = {cell: index.get(cell) for cell in cells}
    columns = {cell: [] for cell in cells}
    for row in itertools.islice(rows, order):
        for cell, key in keys.items():
            columns[cell].append(0 if key is None else row[key])
    powers = [scale**k for k in range(order - 1, -1, -1)]
    out = {}
    for (i, j), column in columns.items():
        p, q = (u ** ((i == 0) + (j == 0))).as_integer_ratio()
        out[i, j] = Series._normed([c * f * p for c, f in zip(column, powers)], powers[0] * q)
    return out


def _fraction_table(index, rows, scale: int) -> list[dict[tuple[int, int], Fraction]]:
    """table[n][state] = rows[n][index of state] / scale^n."""
    table = []
    den = 1
    for row in rows:
        if den == 1:
            table.append(dict(zip(index, map(Fraction, row))))
        else:
            table.append({s: Fraction(v, den) for s, v in zip(index, row)})
        den *= scale
    return table


def _lockstep_rows(u: Fraction, w: Fraction, radii):
    """State index, integer value rows and scale L of the lock-step gap DP.

    A move weighs w^(shared edges) * u^(zero gaps after it).  Every such
    weight is multiplied by L, the lcm of their denominators, so row n
    holds the n-step values times L^n.
    """
    weights = {(s, t): w**s * u**t for s in range(3) for t in range(3)}
    lifted, scale = over_lcm([q.as_integer_ratio() for q in weights.values()])
    scaled = dict(zip(weights, lifted))

    def transitions(a, b):
        for da, db, shared in _lockstep_moves(a == 0, b == 0):
            na, nb = a + da, b + db
            yield na, nb, scaled[shared, (na == 0) + (nb == 0)]

    return (*_gap_rows(transitions, 0, radii), scale)


def _lockstep_columns(u, w, cells, order: int) -> dict[tuple[int, int], Series]:
    """Refined lock-step star counts at ``cells``, from the rows of their cone."""
    u = as_fraction(u)
    index, rows, scale = _lockstep_rows(u, as_fraction(w), _cone(cells, order))
    return _dp_columns(index, rows, cells, order, scale, u)


def lockstep_dp_table(u, w, order: int) -> list[dict[tuple[int, int], Fraction]]:
    """Value-iteration tables: table[n][(a, b)] counts n-step continuations.

    The start-state co-location factor is NOT included here; one table
    serves every star cell.  Gaps beyond order+2 saturate (they cannot
    influence coefficients below the order).
    """
    radii = [order + 2] * max(order, 1)
    return _fraction_table(*_lockstep_rows(as_fraction(u), as_fraction(w), radii))


def lockstep_dp(u, w, i: int, j: int, order: int) -> list[Fraction]:
    """Refined lock-step star counts by gap dynamic programming.

    weight(configuration) = u^(number of (pair, time) co-locations,
    start included) * w^(number of shared edges).
    """
    _gaps(i, j)
    if order < 1:
        return []
    return list(_lockstep_columns(u, w, [(i, j)], order)[i, j].coeffs)


def _randomturn_rows(steps: str, boundary: str, radii):
    """State index and integer value rows of the random-turn gap DP."""
    choices = (1, -1) if steps == "dyck" else (1, 0, -1)

    def transitions(a, b):
        for s in choices:  # walker 1, 2 or 3 steps by s
            for na, nb in ((a - s, b), (a + s, b - s), (a, b + s)):
                yield na, nb, 1

    return _gap_rows(transitions, 1 if boundary == "vicious" else 0, radii)


def _randomturn_columns(steps: str, boundary: str, cells, order: int) -> dict:
    """Random-turn star counts at ``cells``, from the rows of their cone."""
    return _dp_columns(*_randomturn_rows(steps, boundary, _cone(cells, order)), cells, order)


def randomturn_dp_table(
    steps: str, boundary: str, order: int
) -> list[dict[tuple[int, int], Fraction]]:
    """table[n][(a, b)]: n-step random-turn continuations from gaps (a, b)."""
    return _fraction_table(*_randomturn_rows(steps, boundary, [order + 2] * max(order, 1)), 1)


def randomturn_dp(
    steps: str, boundary: str, i: int, j: int, order: int
) -> list[Fraction]:
    """Random-turn star counts: one walker moves per time step."""
    _gaps(i, j)
    if order < 1:
        return []
    return list(_randomturn_columns(steps, boundary, [(i, j)], order)[i, j].coeffs)


def walker_dp(model: WalkerModel, i: int, j: int, order: int) -> list[Fraction]:
    """Oracle counts for any walker model."""
    if model.mode == "lock_step":
        if model.boundary == "refined":
            return lockstep_dp(model.u, model.w, i, j, order)
        return lockstep_dp(*_CORNERS[model.boundary], i, j, order)
    return randomturn_dp(model.steps, model.boundary, i, j, order)


# ---------------------------------------------------------------------------
# Quarter-plane pairs
# ---------------------------------------------------------------------------

QUARTER_PLANE_STEPS = {
    "S1": ((-1, 0), (0, 1), (1, -1)),
    "S2": ((-1, 0), (0, 1), (1, 0), (0, -1), (-1, 1), (1, -1)),
}


def _quarterplane_parts(model: str, order: int, m: int):
    """``parts`` of ``quarterplane_gf`` for gaps up to m: the star at the vicious corner
    (1, -1), with X = kz(1+X+X^2) and T = 1/(1 - 3kz)."""
    if model not in QUARTER_PLANE_STEPS:
        raise ValueError("model must be S1 or S2")
    k = 1 if model == "S1" else 2
    return _star_parts(_unary_base({-1: k, 0: k, 1: k}, order), 1, -1, m)


def quarterplane_gf(model: str, i: int, j: int, order: int, *, parts=None) -> Series:
    """(1 - X^(i+1))(1 - X^(j+1)) T: the vicious star read one gap further out."""
    m = _gaps(i, j)
    return _star(parts or _quarterplane_parts(model, order, m + 1), i + 1, j + 1)


def _quarterplane_columns(model: str, cells, order: int) -> dict[tuple[int, int], Series]:
    """Direct 2-D walk counts from ``cells`` staying in the quarter plane.

    The walk's position is a gap pair with floor 0, and every step moves
    each coordinate by at most 1, so the rows of the cells' cone suffice.
    """
    steps = QUARTER_PLANE_STEPS[model]
    index, rows = _gap_rows(lambda a, b: ((a + dx, b + dy, 1) for dx, dy in steps), 0,
                            _cone(cells, order))
    return _dp_columns(index, rows, cells, order)


def quarterplane_dp(model: str, i: int, j: int, order: int) -> list[Fraction]:
    """Direct 2-D walk count from (i, j) staying in the quarter plane, at least one term."""
    _gaps(i, j)
    return list(_quarterplane_columns(model, [(i, j)], max(order, 1))[i, j].coeffs)
