"""Meanders and excursions for one-dimensional weighted step sets.

The closed forms come from the small factor of the step polynomial: the
level-j meander series is the free-walk series times the partial sum of
complete homogeneous symmetric functions of the small branches, weighted
by the product of (1 - branch).  The endpoint-marked refinement divides
each branch by the marker and swaps the free-walk prefactor for its
marked version.  Only the complete homogeneous sum depends on the level,
so each prefactor times each h_f is built once per step set and a level
sums those terms.  A direct dynamic-programming count over (steps,
level), built on integers, serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .kernel import complete_homogeneous, hensel_small_factor
from .marker import MarkerSeries
from .series import Series, _mul_ints, over_lcm
from .steps import StepSet


def walks_total(steps: StepSet, order: int) -> Series:
    """Free walks from level 0 ending anywhere: 1/(1 - z P(1))."""
    one = Series.one(order)
    return one / (one - Series.z(order) * steps.total_weight())


@dataclass(frozen=True)
class MeanderGF:
    start_level: int
    plain: Series
    marked: MarkerSeries


def _scaled_steps(steps: StepSet) -> tuple[int, list[int], int]:
    """(lowest jump, integer weights L*w by jump from it upward, L).

    L is the lcm of the weights' denominators, so n steps weigh an
    integer over L^n.
    """
    low = min(b for b, _ in steps.steps)
    lifted, scale = over_lcm([w.as_integer_ratio() for _, w in steps.steps])
    weights = [0] * (max(b for b, _ in steps.steps) - low + 1)
    for (b, _), c in zip(steps.steps, lifted):
        weights[b - low] = c
    return low, weights, scale


def _marked_free_walks(steps: StepSet, order: int) -> MarkerSeries:
    """1/(1 - z P(v)) with v marking the displacement per step.

    Slice n is (L P(v))^n / L^n, which spans displacements n*low to
    n*high; all slices sit on the window of the last one (and 0).
    """
    low, weights, scale = _scaled_steps(steps)
    high = low + len(weights) - 1
    lo = min(0, (order - 1) * low)
    width = max(0, (order - 1) * high) - lo + 1
    nums = [0] * (order * width)
    row = [1]
    factor = scale ** (order - 1)
    for n in range(order):
        if n:
            row = _mul_ints(row, weights, len(row) + len(weights) - 1)
            factor //= scale
        start = n * width + n * low - lo
        nums[start:start + len(row)] = [c * factor for c in row]
    return MarkerSeries._normed(order, lo, width, nums, scale ** (order - 1))


def _meander_parts(steps: StepSet, order: int, j_max: int):
    """``parts`` of ``meander_gf`` for start levels up to j_max.

    With P and M the plain and marked prefactors, the level-j series are
    the sums over f <= j of the terms P h_f and (M h_f) v^-f; the parts
    are those sums, plain and marked, for j = 0..j_max.
    """
    small = hensel_small_factor(steps, order)
    # marked version: every branch is divided by the marker, so the factor
    # product becomes sum (-1)^k e_k v^-k (and h_f gains marker exponent -f).
    free = _marked_free_walks(steps, order)
    marked = sum(((free * (e if k % 2 == 0 else -e)).shift_marker(-k)
                  for k, e in enumerate(small.elementary, start=1)), free)
    plain = walks_total(steps, order) * small.at_one()
    h = complete_homogeneous(small, j_max)
    return (list(accumulate(plain * hf for hf in h)),
            list(accumulate((marked * hf).shift_marker(-f) for f, hf in enumerate(h))))


def meander_gf(steps: StepSet, level: int, order: int, *, parts=None) -> MeanderGF:
    """Meanders starting at the given level, plain and endpoint-marked."""
    steps.require_two_sided()
    if level < 0:
        raise ValueError("meanders start at a non-negative level")
    plain, marked = parts or _meander_parts(steps, order, level)
    if level >= len(plain):
        raise ValueError(f"the parts hold start levels up to {len(plain) - 1}, not {level}")
    # shift from displacement marking to absolute endpoint level
    return MeanderGF(level, plain[level], marked[level].shift_marker(level))


def excursion_gf(steps: StepSet, level: int, order: int) -> Series:
    """Meanders returning to their start level: the marker slice at start."""
    gf = meander_gf(steps, level, order)
    return gf.marked.extract(level)


def _meander_dp_series(steps: StepSet, level: int, order: int) -> tuple[Series, MarkerSeries]:
    """The dynamic program's totals as a series and its table as a marker series.

    Row n lists, by end level from 0, L^n times the weight of the n-step
    paths from the start level that stay non-negative.  Times
    L^(order-1-n), it sits over the common denominator L^(order-1), as in
    ``_marked_free_walks``; the marker is the end level.
    """
    if level < 0:
        raise ValueError("meanders start at a non-negative level")
    low, weights, scale = _scaled_steps(steps)
    rows = [[0] * level + [1]]
    for _ in range(1, order):
        # level k + b comes from level k by jump b; levels below 0 are cut
        full = _mul_ints(rows[-1], weights, len(rows[-1]) + len(weights) - 1)
        rows.append(full[-low:] if low < 0 else [0] * low + full)
    width = max(map(len, rows))
    nums = [0] * (order * width)
    totals = []
    factor = scale ** (order - 1)
    for n, row in enumerate(rows):
        nums[n * width:n * width + len(row)] = [c * factor for c in row]
        totals.append(sum(row) * factor)
        factor //= scale
    den = scale ** (order - 1)
    return Series._normed(totals, den), MarkerSeries._normed(order, 0, width, nums, den)


def meander_dp(
    steps: StepSet, level: int, order: int
) -> tuple[list[Fraction], list[dict[int, Fraction]]]:
    """Step-by-step count of meanders from the level; the oracle.

    Returns (totals, table) where table[n][k] is the weight of n-step
    paths from the start level to level k staying non-negative, and
    totals[n] sums over k: the Fraction view of ``_meander_dp_series``,
    with at least one row.
    """
    plain, marked = _meander_dp_series(steps, level, max(order, 1))
    return list(plain.coeffs), list(marked.coeffs)


@dataclass(frozen=True)
class MeanderCheck:
    ok: bool
    first_mismatch: tuple[int, int] | None  # (level, z-order)


def verify_meander_closed_form(steps: StepSet, j_max: int, order: int) -> MeanderCheck:
    """Closed form against the dynamic program, levels 0..j_max.

    Checks the plain series, the marker specialized at 1, and every
    endpoint slice of the marked series against the DP table, all
    compared on their integer grids.
    """
    parts = _meander_parts(steps, order, j_max)
    for level in range(j_max + 1):
        gf = meander_gf(steps, level, order, parts=parts)
        plain_dp, marked_dp = _meander_dp_series(steps, level, order)
        for plain in (gf.plain, gf.marked.at_one()):
            if plain != plain_dp:
                return MeanderCheck(False, (level, (plain - plain_dp).valuation()))
        if gf.marked != marked_dp:
            diff = gf.marked - marked_dp
            return MeanderCheck(False, (level, next(n for n in range(diff.order)
                                                    if diff.support(n) is not None)))
    return MeanderCheck(True, None)
