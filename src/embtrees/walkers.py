"""Three non-crossing walkers and quarter-plane pairs.

Lock-step walkers move simultaneously with steps +-1; a star state is the
pair of half-gaps (a, b) between consecutive walkers.  The refined count
weights every (pair, time) co-location by u and every legal shared edge
by w: the leading pair may share down-steps, the trailing pair up-steps.
The boundary families are the corners (u,w) = (0,0) never-touching,
(1,0) touch-but-never-share, (1,1) touching with the legal shares free.
Random-turn walkers move one at a time; the quarter-plane families count
two-dimensional paths and coincide with random-turn osculating walkers
for the six-step set.  Every closed form is checked against the gap
dynamic program.  The pieces no cell changes (the root X, the series T
and the adapted coefficients) are built once per family and passed to
the per-cell functions through their ``parts`` argument, with X's powers
up to the highest one the cells read.

The dynamic programs run on integers.  Gap states are indexed once and
each step maps one integer vector to the next.  The lock-step marks are
scaled by L, the lcm of the denominators of every transition weight, so
the n-step vector is exactly L^n times the true values.  The quarter-plane
count fills only the cone of points that the start cell can still read.
Tables and count lists still hold Fractions, built from the integer
vectors at the end.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import BoundaryCheckFailed
from .kernel import SeriesPoly, newton_solve
from .levels import _x_powers
from .series import Q, Series, as_fraction, over_lcm

_ZERO = Q(0)
_BOUNDARIES = ("vicious", "osculating", "updown")


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
        if self.boundary not in _BOUNDARIES and self.boundary != "refined":
            raise ValueError(f"boundary must be one of {_BOUNDARIES} or refined")
        if self.boundary == "updown" and self.mode != "lock_step":
            raise ValueError("up-down walkers are a lock-step model")
        if self.mode == "lock_step" and self.steps != "dyck":
            raise ValueError("lock-step walkers use dyck steps")
        if self.boundary == "refined" and (self.u is None or self.w is None):
            raise ValueError("refined boundary needs both marks")


@dataclass(frozen=True)
class StarGF:
    i: int
    j: int
    series: Series


# ---------------------------------------------------------------------------
# Lock-step closed forms
# ---------------------------------------------------------------------------


def lockstep_x(diag_weight, order: int) -> Series:
    """X = z(2 + (2+w)X + 2X^2), the decay rate of the gap recurrence."""
    dw = as_fraction(diag_weight)
    z = Series.z(order)
    one = Series.one(order)
    eq = SeriesPoly.make([z * 2, z * (2 + dw) - one, z * 2])
    return newton_solve(eq, 0)


def lockstep_T(diag_weight, order: int) -> Series:
    dw = as_fraction(diag_weight)
    one = Series.one(order)
    return one / (one - Series.z(order) * (dw + 6))


def _lockstep_base(diag_weight, order: int, k_max: int) -> tuple[Series, Series, list[Series]]:
    """X, T and X^0..X^k_max at one diagonal weight: the pieces every cell and boundary share."""
    X = lockstep_x(diag_weight, order)
    return X, lockstep_T(diag_weight, order), _x_powers(X, k_max)


def lockstep_general(
    diag_weight, i: int, j: int, alpha: Series, beta: Series, gamma: Series, order: int,
    *, base=None,
) -> StarGF:
    """T * (1 - alpha X^i - beta X^j - gamma X^(i+j)); ``base`` is (X, T, powers of X)."""
    _, T, xp = base or _lockstep_base(diag_weight, order, i + j)
    one = Series.one(order)
    series = T * (
        one
        - alpha.truncate(order) * xp[i]
        - beta.truncate(order) * xp[j]
        - gamma.truncate(order) * xp[i + j]
    )
    return StarGF(i, j, series)


def lockstep_adapt(boundary: str, order: int, *, base=None) -> tuple[Series, Series, Series]:
    """Adapted (alpha, beta, gamma) at diagonal weight 2, verified.

    vicious: (1, 1, -1); osculating: (3X/(1+2X), same, -3X/(2+X));
    up-down: (2X/(1+X), same, -X).  The corresponding boundary equations,
    in the (X, T) of ``base``, are re-checked as series identities.
    """
    X, T, _ = base or _lockstep_base(2, order, 0)
    one = Series.one(order)
    z = Series.z(order)
    if boundary == "vicious":
        alpha = beta = one
        gamma = -one
        checks = [alpha - one, beta - one, alpha + gamma]
    elif boundary == "osculating":
        alpha = beta = X * 3 / (one + X * 2)
        gamma = -(X * 3) / (one + X * Q(1, 2)) * Q(1, 2)
        # j-free part: T(1-alpha) = 1 + 2zT(1 - alpha X)
        checks = [
            T * (one - alpha) - one - z * T * (one - alpha * X) * 2,
            # X^j part, cleared by X: (alpha+gamma) X = z(alpha(X+1) + gamma(X+X^2))
            (alpha + gamma) * X
            - z * (alpha * (X + one) + gamma * (X + X * X)),
        ]
    elif boundary == "updown":
        alpha = beta = X * 2 / (one + X)
        gamma = -X
        checks = [
            T * (one - alpha) - one - z * T * (one * 2 - alpha - alpha * X) * 2,
            (alpha + gamma) * X
            - z * (alpha * (X * 2 + X * X + one) + gamma * (X + X * X) * 2),
        ]
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    for k, residual in enumerate(checks):
        if not residual.is_zero():
            raise BoundaryCheckFailed(
                f"{boundary} boundary equation {k} has residual {residual!r}"
            )
    return alpha, beta, gamma


def _star_parts(boundary: str, order: int, base):
    """``parts`` of ``lockstep_star``: ``base`` and the adapted (alpha, beta, gamma)."""
    return base, lockstep_adapt(boundary, order, base=base)


def lockstep_star(boundary: str, i: int, j: int, order: int, *, parts=None) -> StarGF:
    """Closed star series for the three lock-step boundary models (w=2)."""
    base, adapted = parts or _star_parts(boundary, order, _lockstep_base(2, order, i + j))
    return lockstep_general(2, i, j, *adapted, order, base=base)


def _refined_parts(u, w, order: int, base):
    """``parts`` of ``lockstep_refined``: ``base`` and the adapted (alpha, alpha, gamma)."""
    u, w = as_fraction(u), as_fraction(w)
    X = base[0]
    one = Series.one(order)
    sq = (one + X) ** 2
    alpha = (sq - (one - X + X * X + X * w) * u) / (sq - X * (X + w) * u)
    ratio_num = (one + X) * 2 - (one + X * w) * u
    ratio_den = (one + X) * 2 - X * (1 + w) * u
    gamma = -(alpha * ratio_num / ratio_den)
    return base, (alpha, alpha, gamma)


def lockstep_refined(u, w, i: int, j: int, order: int, *, parts=None) -> StarGF:
    """Refined star series with co-location mark u and shared-edge mark w."""
    base, adapted = parts or _refined_parts(u, w, order, _lockstep_base(2, order, i + j))
    return lockstep_general(2, i, j, *adapted, order, base=base)


# ---------------------------------------------------------------------------
# Random-turn closed forms
# ---------------------------------------------------------------------------


def randomturn_x(steps: str, order: int) -> Series:
    """dyck: X = 2z(1+X+X^2); motzkin: X = z(2+5X+2X^2)."""
    z = Series.z(order)
    one = Series.one(order)
    if steps == "dyck":
        eq = SeriesPoly.make([z * 2, z * 2 - one, z * 2])
    elif steps == "motzkin":
        eq = SeriesPoly.make([z * 2, z * 5 - one, z * 2])
    else:
        raise ValueError("steps must be dyck or motzkin")
    return newton_solve(eq, 0)


def _randomturn_parts(steps: str, order: int, k_max: int) -> tuple[Series, Series, list[Series]]:
    """``parts`` of ``randomturn_gf``: X, T and X^0..X^k_max for one step set."""
    one = Series.one(order)
    total = 6 if steps == "dyck" else 9
    X = randomturn_x(steps, order)
    return X, one / (one - Series.z(order) * total), _x_powers(X, k_max)


def randomturn_gf(steps: str, boundary: str, i: int, j: int, order: int, *, parts=None) -> StarGF:
    """Vicious stars (1-X^i)(1-X^j) T; osculating stars shift both gaps by 1."""
    if boundary == "osculating":
        inner = randomturn_gf(steps, "vicious", i + 1, j + 1, order, parts=parts)
        return StarGF(i, j, inner.series)
    if boundary != "vicious":
        raise ValueError("random-turn boundaries are vicious or osculating")
    _, T, xp = parts or _randomturn_parts(steps, order, max(i, j))
    one = Series.one(order)
    return StarGF(i, j, T * (one - xp[i]) * (one - xp[j]))


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


def _value_rows(moves, order: int):
    """Integer value iteration over indexed states, one row at a time:
    V_0 = 1 and V_n[s] = sum of weight * V_(n-1)[dest] over the moves
    (dests, weights) of s; ``weights`` None means every weight is 1."""
    row = [1] * len(moves)
    for n in range(max(order, 1)):
        if n:
            get = row.__getitem__
            row = [
                sum(map(get, dests)) if weights is None
                else sum(map(mul, weights, map(get, dests)))
                for dests, weights in moves
            ]
        yield row


def _fraction_table(states, rows, scale: int) -> list[dict[tuple[int, int], Fraction]]:
    """table[n][state] = rows[n][index of state] / scale^n."""
    table = []
    den = 1
    for row in rows:
        if den == 1:
            table.append(dict(zip(states, map(Fraction, row))))
        else:
            table.append({s: Fraction(v, den) for s, v in zip(states, row)})
        den *= scale
    return table


def _lockstep_rows(u: Fraction, w: Fraction, order: int):
    """States, integer value rows and scale L of the lock-step gap DP.

    A move weighs w^(shared edges) * u^(zero gaps after it).  Every such
    weight is multiplied by L, the lcm of their denominators, so row n
    holds the n-step values times L^n.
    """
    band = order + 2
    weights = {(s, t): w**s * u**t for s in range(3) for t in range(3)}
    lifted, scale = over_lcm([q.as_integer_ratio() for q in weights.values()])
    scaled = dict(zip(weights, lifted))
    states = [(a, b) for a in range(band + 1) for b in range(band + 1)]
    moves = []
    for a, b in states:
        dests, ws = [], []
        for da, db, shared in _lockstep_moves(a == 0, b == 0):
            na, nb = a + da, b + db
            weight = scaled[shared, (na == 0) + (nb == 0)]
            if na >= 0 and nb >= 0 and weight:
                dests.append(min(na, band) * (band + 1) + min(nb, band))
                ws.append(weight)
        moves.append((tuple(dests), tuple(ws)))
    return states, _value_rows(moves, order), scale


def lockstep_dp_table(u, w, order: int) -> list[dict[tuple[int, int], Fraction]]:
    """Value-iteration tables: table[n][(a, b)] counts n-step continuations.

    The start-state co-location factor is NOT included here; one table
    serves every star cell.  Gaps beyond order+2 saturate (they cannot
    influence coefficients below the order).
    """
    states, rows, scale = _lockstep_rows(as_fraction(u), as_fraction(w), order)
    return _fraction_table(states, rows, scale)


def lockstep_dp(u, w, i: int, j: int, order: int) -> list[Fraction]:
    """Refined lock-step star counts by gap dynamic programming.

    weight(configuration) = u^(number of (pair, time) co-locations,
    start included) * w^(number of shared edges).
    """
    u = as_fraction(u)
    states, rows, scale = _lockstep_rows(u, as_fraction(w), order)
    start_factor = u ** ((i == 0) + (j == 0))
    band = order + 2
    key = min(i, band) * (band + 1) + min(j, band)
    return [start_factor * Fraction(row[key], scale**n)
            for n, row in enumerate(itertools.islice(rows, order))]


def _randomturn_rows(steps: str, boundary: str, order: int):
    """States and integer value rows of the random-turn gap DP."""
    step_choices = (1, -1) if steps == "dyck" else (1, 0, -1)
    floor = 1 if boundary == "vicious" else 0
    band = order + 2
    side = band + 1 - floor
    states = [
        (a, b)
        for a in range(floor, band + 1)
        for b in range(floor, band + 1)
    ]
    moves = []
    for a, b in states:
        dest = []
        for walker in (1, 2, 3):
            for s in step_choices:
                if walker == 1:
                    na, nb = a - s, b
                elif walker == 2:
                    na, nb = a + s, b - s
                else:
                    na, nb = a, b + s
                if na >= floor and nb >= floor:
                    dest.append((min(na, band) - floor) * side + min(nb, band) - floor)
        moves.append((tuple(dest), None))
    return states, _value_rows(moves, order)


def randomturn_dp_table(
    steps: str, boundary: str, order: int
) -> list[dict[tuple[int, int], Fraction]]:
    """table[n][(a, b)]: n-step random-turn continuations from gaps (a, b)."""
    states, rows = _randomturn_rows(steps, boundary, order)
    return _fraction_table(states, rows, 1)


def randomturn_dp(
    steps: str, boundary: str, i: int, j: int, order: int
) -> list[Fraction]:
    """Random-turn star counts: one walker moves per time step."""
    if boundary == "vicious" and (i < 1 or j < 1):
        return [_ZERO] * order
    states, rows = _randomturn_rows(steps, boundary, order)
    key = states.index((min(i, order + 2), min(j, order + 2)))
    return [Fraction(row[key]) for row in itertools.islice(rows, order)]


def walker_dp(model: WalkerModel, i: int, j: int, order: int) -> list[Fraction]:
    """Oracle counts for any walker model."""
    if model.mode == "lock_step":
        corners = {"vicious": (0, 0), "osculating": (1, 0), "updown": (1, 1)}
        if model.boundary == "refined":
            u, w = model.u, model.w
        else:
            u, w = corners[model.boundary]
        return lockstep_dp(u, w, i, j, order)
    return randomturn_dp(model.steps, model.boundary, i, j, order)


# ---------------------------------------------------------------------------
# Quarter-plane pairs
# ---------------------------------------------------------------------------

QUARTER_PLANE_STEPS = {
    "S1": ((-1, 0), (0, 1), (1, -1)),
    "S2": ((-1, 0), (0, 1), (1, 0), (0, -1), (-1, 1), (1, -1)),
}


def _quarterplane_parts(model: str, order: int, k_max: int) -> tuple[Series, Series, list[Series]]:
    """``parts`` of ``quarterplane_gf``: X = kz(1+X+X^2), T = 1/(1 - 3kz) and X^0..X^k_max."""
    if model not in QUARTER_PLANE_STEPS:
        raise ValueError("model must be S1 or S2")
    scale = 1 if model == "S1" else 2
    z = Series.z(order)
    one = Series.one(order)
    eq = SeriesPoly.make([z * scale, z * scale - one, z * scale])
    X = newton_solve(eq, 0)
    return X, one / (one - z * (3 * scale)), _x_powers(X, k_max)


def quarterplane_gf(model: str, i: int, j: int, order: int, *, parts=None) -> Series:
    """(1 - X^(i+1))(1 - X^(j+1)) T with the X and T of ``parts``."""
    _, T, xp = parts or _quarterplane_parts(model, order, max(i, j) + 1)
    one = Series.one(order)
    return T * (one - xp[i + 1]) * (one - xp[j + 1])


def quarterplane_dp(model: str, i: int, j: int, order: int) -> list[Fraction]:
    """Direct 2-D walk count from (i, j) staying in the quarter plane.

    Every step moves each coordinate by at most 1, so the count after n
    more steps at (i, j) reads values at most n away: with k steps taken,
    only the box of radius order - 1 - k around (i, j) is filled.
    """
    steps = QUARTER_PLANE_STEPS[model]

    def box(r: int) -> tuple[int, int, int, int]:
        return max(0, i - r), i + r, max(0, j - r), j + r

    x0, x1, y0, y1 = box(order - 1)
    grid = [[1] * (y1 - y0 + 1) for _ in range(x1 - x0 + 1)]
    out = [1]
    for r in range(order - 2, -1, -1):
        nx0, nx1, ny0, ny1 = box(r)
        width = ny1 - ny0 + 1
        new = []
        for x in range(nx0, nx1 + 1):
            acc = [0] * width
            for dx, dy in steps:
                if x + dx < 0:
                    continue
                row = grid[x + dx - x0]
                first = ny0 + dy  # source column of the box's first column
                skip = 1 if first < 0 else 0  # column -1 lies outside the plane
                src = row[first + skip - y0:first - y0 + width]
                acc[skip:] = map(add, acc[skip:], src)
            new.append(acc)
        grid, x0, y0 = new, nx0, ny0
        out.append(grid[i - x0][j - y0])
    return [Fraction(v) for v in out]
