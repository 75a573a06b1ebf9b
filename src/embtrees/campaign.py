"""Verification-campaign runner.

Every module's cross-checks are registered here as named checks grouped
into suites; each check is the one definition of its claim, and the
acceptance suite runs the same functions at its own sizes.  A campaign
runs a filtered selection and reports it in check-id order; its runtimes
are informational only.  Conjectural statements can never report better
than "conjecture-consistent".

No check reads another's result, so ``run_campaign`` runs them side by
side: in one worker process per CPU this process may use, forked for the
call and gone when it returns.  Each result carries its check's own time
and work counts (``counts.COUNTS`` over the check), measured in the
process that ran it.  With one CPU, one selected check, no ``fork``
start method, or another thread running in this process (a fork copies
only the calling thread), the checks run one after another in this
process.
"""

from __future__ import annotations

import functools
import os
import random
import sys
import threading
import time
from dataclasses import dataclass

from . import binary as B
from . import dary as D
from . import oeis as O
from . import paths as P
from . import walkers as W
from .counts import COUNTS, since
from .kernel import (
    SeriesPoly,
    complete_homogeneous,
    family_base,
    fixed_point_solve,
    fuss_catalan,
    hensel_small_factor,
    newton_solve,
    tree_root,
)
from .levels import (_x_powers, alpha_recurrence, label_spectra, level_identity,
                     level_residual, recomputed_sums)
from .marker import MarkerSeries
from .multipoly import MultiPoly, RationalFunction
from .series import Q, Series
from .steps import StepSet, parse_step_set


@dataclass(frozen=True)
class CheckResult:
    id: str
    claim: str
    status: str  # "pass" | "fail" | "conjecture-consistent"
    detail: str
    runtime_ms: int
    counts: tuple[tuple[str, int], ...]  # (event, count) pairs, see counts.COUNTS


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        lines = [
            f"{r.status.upper():<22} {r.id:<46} {r.runtime_ms:>6} ms"
            + (f"  [{r.detail}]" if r.detail else "")
            for r in self.results
        ]
        counts = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        tally = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        return "\n".join(lines + [f"-- {tally}"])


@dataclass(frozen=True)
class CampaignConfig:
    suites: tuple[str, ...] | None = None  # None = all


# ---------------------------------------------------------------------------
# Check implementations.  Each returns (ok, detail) or a status string.
# Keyword inputs let the acceptance criteria run a check at other sizes;
# their defaults are the sizes the campaign runs it at.
# ---------------------------------------------------------------------------


def _check_series_ring_laws():
    rng = random.Random(90125)

    def rand_series():
        return Series([Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(10)])

    for trial in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        if not ((a + b) * c).matches(a * c + b * c):
            return False, f"distributivity failed on trial {trial}"
        if not (a * b).matches(b * a) or not ((a * b) * c).matches(a * (b * c)):
            return False, f"associativity/commutativity failed on trial {trial}"
    return True, ""


def _check_div_roundtrip():
    rng = random.Random(5150)
    for trial in range(20):
        b = Series([Q(rng.randint(1, 9))] + [Q(rng.randint(-9, 9)) for _ in range(9)])
        a = Series([Q(rng.randint(-9, 9)) for _ in range(10)])
        if not ((a / b) * b).matches(a):
            return False, f"(a/b)*b != a on trial {trial}"
        sq = Series([Q(1)] + [Q(rng.randint(-5, 5), 3) for _ in range(9)])
        if not (sq.sqrt() ** 2).matches(sq):
            return False, f"sqrt round trip failed on trial {trial}"
    return True, ""


def _check_marker_convolution():
    rng = random.Random(2112)
    for trial in range(10):
        a = MarkerSeries(
            [{rng.randint(-2, 2): Q(rng.randint(-4, 4)) for _ in range(2)} for _ in range(6)]
        )
        b = MarkerSeries(
            [{rng.randint(-2, 2): Q(rng.randint(-4, 4)) for _ in range(2)} for _ in range(6)]
        )
        lhs = (a * b).extract(0)
        rhs = Series.zero(6)
        for k in range(-2, 3):
            rhs = rhs + a.extract(k) * b.extract(-k)
        if not lhs.matches(rhs):
            return False, f"extract-convolution mismatch on trial {trial}"
    return True, ""


def _check_rf_equal():
    x = MultiPoly.var(("X",), "X")
    one = MultiPoly.const(("X",), 1)
    a = RationalFunction(one - x**2, one - x)
    b = RationalFunction(one + x)
    if not a.equals(b):
        return False, "(1-X^2)/(1-X) != 1+X"
    if not RationalFunction(x, x * x).equals(RationalFunction(one, x)):
        return False, "X/X^2 != 1/X"
    # equality implies equal series at admissible assignments
    motzkin = hensel_small_factor(parse_step_set("-1:1,0:1,1:1"), 20).elementary[0]
    if not a.eval_series({"X": motzkin}).matches(b.eval_series({"X": motzkin})):
        return False, "rf-equal pair disagrees after series evaluation"
    return True, ""


def _check_fuss_catalan(order: int = 30):
    for d in (2, 3, 4, 5):
        z = Series.z(order)
        one = Series.one(order)
        coeffs = [one, -one] + [Series.zero(order)] * (d - 2) + [z]
        T = newton_solve(SeriesPoly.make(coeffs), 1)
        low = fixed_point_solve(lambda t: Series.one(12) + Series.z(12) * t**d, 1, 12)
        if not T.matches(low):
            return False, f"newton vs fixed point disagree at arity {d}"
        for n in range(order):
            if T[n] != fuss_catalan(n, d):
                return False, f"coefficient {n} at arity {d}"
    return True, ""


def _check_hensel(order: int = 30):
    for spec, c in [("-1:1,1:1", 1), ("-2:1,1:1", 2), ("-2:1,-1:2,1:1,3:1", 2), ("-3:1,2:1", 3)]:
        small = hensel_small_factor(parse_step_set(spec), order)
        if small.c != c:
            return False, f"{spec}: wrong factor degree"
        for e in small.elementary:
            if e[0] != 0:
                return False, f"{spec}: factor does not reduce to X^c at z=0"
        h = complete_homogeneous(small, 8)
        ident = MarkerSeries.zero(order)
        for f, hf in enumerate(h):
            ident = ident + MarkerSeries.series_times_marker(hf, f)
        prod = MarkerSeries.one(order)
        for k in range(1, small.c + 1):
            e = small.elementary[k - 1]
            prod = prod + MarkerSeries.series_times_marker(e if k % 2 == 0 else -e, k)
        total = ident * prod
        for n in range(order):
            for p, coeff in total.coeffs[n].items():
                if p <= 8 and not (n == 0 and p == 0 and coeff == 1):
                    return False, f"{spec}: h/e identity fails at z^{n} t^{p}"
    return True, ""


_BINARY_VECTORS = ((0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 1), (1, 0, 1, 0, 0))


def _check_binary_oracle():
    for vec in _BINARY_VECTORS:
        w = B.BinaryWeights.make(*vec)
        for boundary in (1, 0):
            rows = B.binary_Tj_recurrence(w, boundary, 4, 9)
            spectra = label_spectra(w.kinds, 8, "max" if boundary else "min")
            for j in range(-1, 5):
                oracle = B.brute_force_embedded_binary(w, j, 8, boundary, spectra=spectra)
                got = list(rows[j].coeffs[:9])
                if got != oracle:
                    return False, f"weights {vec} boundary {boundary} level {j}"
    return True, ""


def _binary_x_radical(w: B.BinaryWeights, order: int) -> Series:
    """The square-root form of the binary decay rate, the small root of
    X = z(r(1 + X^2) + sX) with r = v1 + (w1+w3)T and s = v2 + 2(w2+w3)T:
    X = (1 - zs - sqrt((1 - zs)^2 - 4 z^2 r^2)) / (2 z r)."""
    g = order + 3
    T = tree_root(w.kinds, g)
    one, z = Series.one(g), Series.z(g)
    r = T * (w.w1 + w.w3) + w.v1
    s = T * (2 * (w.w2 + w.w3)) + w.v2
    rad = (one - z * s) ** 2 - (z * r) ** 2 * 4
    return ((one - z * s - rad.sqrt()) / (z * r * 2)).truncate(order)


def _check_binary_residuals(order: int = 30):
    for vec in _BINARY_VECTORS + ((1, 1, 1, 0, 0),):
        w = B.BinaryWeights.make(*vec)
        small, T = family_base(w.kinds, order)
        z = Series.z(order)
        one = Series.one(order)
        resid = T - one - z * T * w.linear - z * T * T * w.quadratic
        if not resid.is_zero():
            return False, f"tree equation residual at {vec}"
        if small.elementary[0] != _binary_x_radical(w, order):
            return False, f"characteristic root differs from its square-root form at {vec}"
    return True, ""


def _first_unproved(kinds, parts) -> int | None:
    """The first n whose claim alpha_n = num_n / (first pair^(n-1)) fails in Q(X), or None:
    alpha_1 must be 1, and acc_n = num_n first^(most-1) pair D_n (see ``recomputed_sums``)."""
    first, pair, nums = parts
    scales = _x_powers(first, len(kinds[0][1]) - 1, pair)  # pair first^k
    return 1 if nums[0] != first else next(
        (n for n, (most, acc, divisor) in enumerate(recomputed_sums(kinds, first, pair, nums), 2)
         if acc != nums[n - 1] * scales[most - 1] * divisor), None)


def _first_wrong_alpha(kinds, parts, n_max: int, base) -> int | None:
    """The first n at which the claim of ``parts(X, T, n_max)`` fails, or None: proved in
    Q(X), T unread, on kinds of one arity, where T^arity cancels; else num_n must equal
    first pair^(n-1) times the recurrence's alpha_n in series, at ``base()`` = (factor, T)."""
    if len({len(offs) for _, offs in kinds}) == 1:
        return _first_unproved(kinds, parts(MultiPoly.var(("X",), "X"), None, n_max))
    small, T = base()
    X = small.elementary[0]
    first, pair, nums = parts(X, T, n_max)
    rows = zip(alpha_recurrence(kinds, X, T, n_max), nums, _x_powers(pair, n_max - 1, first))
    return next((n for n, (a, num, den) in enumerate(rows, 1) if not num.matches(a * den)), None)


def _check_binary_alpha(order: int = 30):
    # proved at v1 = v2 = 0, where every kind is binary; elsewhere T is quadratic over Q(X)
    for vec, mode in (((0, 0, 1, 0, 0), "matched_closed"), ((0, 0, 0, 1, 1), "matched_closed"),
                      ((1, 0, 1, 0, 0), "matched_closed"), ((2, 1, 1, 1, 1), "matched_closed"),
                      ((0, 0, 0, 0, 1), "w3_closed"), ((1, 0, 0, 0, 1), "w3_closed")):
        w = B.BinaryWeights.make(*vec)
        bad = _first_wrong_alpha(w.kinds, functools.partial(B._CLOSED_PARTS[mode], w), 12,
                                 lambda: family_base(w.kinds, order))
        if bad is not None:
            return False, f"weights {vec}, index {bad} ({mode})"
    return True, ""


def _check_closed_family():
    for vec in ((0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0)):
        w = B.BinaryWeights.make(*vec)
        if not level_identity(w.kinds, *B.closed_family_rows(w)):
            return False, f"weights {vec}"
    return True, ""


def _check_t_of_x(order: int = 30):
    for vec in _BINARY_VECTORS + ((2, 1, 1, 1, 1),):
        w = B.BinaryWeights.make(*vec)
        if not B.t_of_x_identity(w, order):
            return False, f"weights {vec}"
    return True, ""


def _check_monotone_limit():
    w = B.BinaryWeights.make(0, 0, 1, 0, 0)
    rows = B.binary_Tj_recurrence(w, 1, 12, 12)
    T = tree_root(w.kinds, 12)
    for n in range(12):
        for j in range(n, 13):
            if j in rows and rows[j][n] != T[n]:
                return False, f"row {j} coefficient {n} has not stabilized"
    return True, ""


def _check_conjecture(order: int = 30):
    report = B.conjecture_check(10, order)
    if report.status != "conjecture-consistent":
        return False, f"disagreement: {report.agreements}"
    return "conjecture-consistent", ""


def _height_x_rational(v1, v2, T: Series) -> Series:
    """The rational form of the height decay rate: X = z(v1 + T) / (1 - z(v2 + T))."""
    z = Series.z(T.order)
    return z * (T + v1) / (Series.one(T.order) - z * (T + v2))


def _check_height():
    counts = B.plane_tree_height_counts(8)
    T = tree_root(B._height_kinds(0, 0), 11)
    for j in range(6):
        gf = B.height_plane_trees(j, 9, T=T)
        oracle = [sum(c for h, c in counts[n].items() if h <= j) for n in range(9)]
        if list(gf.coeffs) != oracle:
            return False, f"height bound {j}"
    for v1, v2 in ((0, 0), (1, 0), (2, 3)):
        kinds = B._height_kinds(v1, v2)
        base = family_base(kinds, 20)
        if base[0].elementary[0] != _height_x_rational(v1, v2, base[1]):
            return False, f"couplings {(v1, v2)}: characteristic root differs from its rational form"
        # proved at (0, 0), where the one kind is binary
        bad = _first_wrong_alpha(kinds, functools.partial(B._height_parts, v1), 8, lambda: base)
        if bad is not None:
            return False, f"couplings {(v1, v2)}, index {bad}"
    return True, ""


def _check_ternary(order: int = 30):
    # with no unary couplings the ternary kind list is the odd d = 1 family's
    kinds = B._ternary_kinds(Q(0), Q(0))
    small, T = family_base(kinds, order)
    branch = small.elementary[0]
    table = alpha_recurrence(kinds, branch, T, 8)
    closed = D.dary_alpha_one_param_closed(D.DaryFamily("odd", 1), 8)
    for n in range(1, 9):
        want = closed[n - 1].eval_series({"X": branch})
        if not table[n - 1].matches(want):
            return False, f"index {n} disagrees with the single-branch form"
    kinds = B._ternary_kinds(Q(1), Q(2))
    small, T = family_base(kinds, 20)
    X = small.elementary[0]
    if not level_residual(kinds, alpha_recurrence(kinds, X, T, 6), X, T, 2, 12).is_zero():
        return False, "level residual with unary couplings"
    return True, ""


_DARY_FAMILIES = (
    D.DaryFamily("odd", 1),
    D.DaryFamily("odd", 2),
    D.DaryFamily("even", 1),
    D.DaryFamily("even", 2),
    D.DaryFamily("even", 3),
)


def _check_dary_one_param():
    for fam in _DARY_FAMILIES:
        if not level_identity(fam.kinds, *D.one_param_rows(fam)):
            return False, f"{fam.kind} d={fam.d}"
    return True, ""


def _check_dary_alpha():
    for fam in _DARY_FAMILIES[:4]:
        bad = _first_unproved(fam.kinds, D._one_param_parts(fam, 10))
        if bad is not None:
            return False, f"{fam.kind} d={fam.d} index {bad}"
    return True, ""


def _check_dary_oracle():
    for fam, n_max in ((D.DaryFamily("odd", 1), 7), (D.DaryFamily("even", 1), 7),
                       (D.DaryFamily("odd", 2), 5), (D.DaryFamily("even", 2), 5)):
        rows = D.dary_Tj_recurrence(fam, 3, n_max + 1)
        spectra = label_spectra(fam.kinds, n_max, "max")
        for j in range(0, 4):
            oracle = D.brute_force_dary(fam, j, n_max, spectra=spectra)
            if list(rows[j].coeffs[: n_max + 1]) != oracle:
                return False, f"{fam.kind} d={fam.d} level {j}"
    return True, ""


def _check_dary_small_factor():
    for fam in _DARY_FAMILIES:
        small, _ = family_base(fam.kinds, 12)
        for e in small.elementary:
            v = e.valuation()
            if v is None or v < 1:
                return False, f"{fam.kind} d={fam.d}: coefficient with valuation {v}"
    return True, ""


def _check_main_equation(d: int):
    for fam in (D.DaryFamily("odd", d), D.DaryFamily("even", d)):
        report = D.verify_main_equation(fam, 3, 15)
        if not report.ok:
            return False, f"{fam.kind} d={fam.d}: {report.first_failure}"
    return True, ""


def _check_meanders(
    order: int = 25,
    step_sets=("-1:1,1:1", "-1:1,0:1,1:1", "-2:1,-1:2,1:1,3:1", "-1:2,1:3", "-3:1,2:1/2"),
):
    for spec in step_sets:
        result = P.verify_meander_closed_form(parse_step_set(spec), 5, order)
        if not result.ok:
            return False, f"{spec}: first mismatch {result.first_mismatch}"
    return True, ""


def _check_excursions(order: int = 30):
    dyck = StepSet.make([(-1, 1), (1, 1)])
    motzkin = StepSet.make([(-1, 1), (0, 1), (1, 1)])
    cat = [fuss_catalan(k, 2) for k in range(order // 2 + 1)]
    exc = P.excursion_gf(dyck, 0, order)
    for n in range(order):
        want = cat[n // 2] if n % 2 == 0 else Q(0)
        if exc[n] != want:
            return False, f"dyck excursion coefficient {n}"
    moz = P.excursion_gf(motzkin, 0, 8)
    if [int(c) for c in moz.coeffs] != [1, 1, 2, 4, 9, 21, 51, 127]:
        return False, "motzkin excursions"
    return True, ""


def _check_path_monotone():
    dyck = StepSet.make([(-1, 1), (1, 1)])
    total = P.walks_total(dyck, 12)
    parts = P._meander_parts(dyck, 12, 12)
    prev = None
    for j in range(13):
        plain = P.meander_gf(dyck, j, 12, parts=parts).plain
        if prev is not None:
            for n in range(12):
                if plain[n] < prev[n]:
                    return False, f"level {j} coefficient {n} decreased"
        for n in range(12):
            if j >= n and plain[n] != total[n]:
                return False, f"level {j} coefficient {n} below free count"
        prev = plain
    return True, ""


_STAR_CELLS = [(i, j) for i in range(5) for j in range(5)]


def _check_walkers_lockstep(order: int = 20):
    base = W._lockstep_base(order)
    for boundary, (u, w) in W._CORNERS.items():
        dp = W._lockstep_columns(u, w, _STAR_CELLS, order)
        parts = W._refined_parts(u, w, base, 4)
        for i, j in _STAR_CELLS:
            if boundary == "osculating" and (i, j) == (0, 0):
                continue
            if W.lockstep_star(boundary, i, j, order, parts=parts).series != dp[i, j]:
                return False, f"{boundary} at {(i, j)}"
    return True, ""


def _check_walkers_refined(order: int = 16, marks=((Q(1, 2), Q(1, 3)), (Q(2), Q(1)))):
    base = W._lockstep_base(order)
    for u, w in marks:
        dp = W._lockstep_columns(u, w, _STAR_CELLS, order)
        parts = W._refined_parts(u, w, base, 4)
        for i, j in _STAR_CELLS:
            if (i, j) == (0, 0):
                continue
            if W.lockstep_refined(u, w, i, j, order, parts=parts).series != dp[i, j]:
                return False, f"marks {(str(u), str(w))} at {(i, j)}"
    # the boundary models' adapted (alpha, gamma), as the refined form gives them at its corners
    X = W.lockstep_x(12)
    one = Series.one(12)
    for boundary, adapted in (("vicious", (one, -one)),
                              ("osculating", (X * 3 / (one + X * 2), -(X * 3) / (one * 2 + X))),
                              ("updown", (X * 2 / (one + X), -X))):
        if W._refined_adapted(*W._CORNERS[boundary], X) != adapted:
            return False, f"adapted coefficients at the {boundary} corner"
    return True, ""


def _check_walkers_randomturn(order: int = 20):
    # the osculating stars are read one gap further out, up to gap 4 + 1
    parts = {steps: W._randomturn_parts(steps, order, 5) for steps in ("dyck", "motzkin")}
    for steps in ("dyck", "motzkin"):
        for boundary in ("vicious", "osculating"):
            dp = W._randomturn_columns(steps, boundary, _STAR_CELLS, order)
            for i, j in _STAR_CELLS:
                closed = W.randomturn_gf(steps, boundary, i, j, order, parts=parts[steps]).series
                if closed != dp[i, j]:
                    return False, f"{steps} {boundary} at {(i, j)}"
    z = Series.z(order)
    one = Series.one(order)
    rt = W.randomturn_gf("dyck", "osculating", 0, 0, order, parts=parts["dyck"]).series
    ref = (one - z * 2 - ((one + z * 2) * (one - z * 6)).sqrt()) / (z * z * 8)
    if not rt.matches(ref):
        return False, "dyck radical form"
    rtm = W.randomturn_gf("motzkin", "osculating", 0, 0, order, parts=parts["motzkin"]).series
    refm = (one - z * 5 - ((one - z) * (one - z * 9)).sqrt()) / (z * z * 8)
    if not rtm.matches(refm):
        return False, "motzkin radical form"
    return True, ""


def _check_quarterplane(order: int = 20, grid: int = 3, doubled_cells=((1, 2),)):
    cells = [(i, j) for i in range(grid) for j in range(grid)]
    m = max(max(cell) + 1 for cell in cells + list(doubled_cells))
    parts = {model: W._quarterplane_parts(model, order, m) for model in ("S1", "S2")}
    closed = {(model, i, j): W.quarterplane_gf(model, i, j, order, parts=parts[model])
              for model in ("S1", "S2") for i, j in cells}
    for model in ("S1", "S2"):
        dp = W._quarterplane_columns(model, cells, order)
        for i, j in cells:
            if closed[model, i, j] != dp[i, j]:
                return False, f"{model} at {(i, j)}"
    for i, j in doubled_cells:  # the grid's series, or the cell's own outside it
        s1, s2 = (closed.get((model, i, j))
                  or W.quarterplane_gf(model, i, j, order, parts=parts[model])
                  for model in ("S1", "S2"))
        if list(s2.coeffs) != [c * 2**k for k, c in enumerate(s1.coeffs)]:
            return False, f"S2 != S1 at doubled variable at {(i, j)}"
    qp, rt = W._quarterplane_parts("S2", 12, grid), W._randomturn_parts("dyck", 12, grid)
    for i, j in cells:
        if not W.quarterplane_gf("S2", i, j, 12, parts=qp).matches(
            W.randomturn_gf("dyck", "osculating", i, j, 12, parts=rt).series
        ):
            return False, f"S2 != random-turn osculating at {(i, j)}"
    return True, ""


def _check_walker_symmetry():
    star = W._refined_parts(1, 1, W._lockstep_base(10), 3)
    rt = W._randomturn_parts("motzkin", 10, 3)
    for i in range(4):
        for j in range(4):
            if (W.lockstep_star("updown", i, j, 10, parts=star).series
                    != W.lockstep_star("updown", j, i, 10, parts=star).series):
                return False, f"updown asymmetry at {(i, j)}"
            if W.randomturn_gf("motzkin", "vicious", i, j, 10, parts=rt).series != W.randomturn_gf(
                "motzkin", "vicious", j, i, 10, parts=rt
            ).series:
                return False, f"random-turn asymmetry at {(i, j)}"
    return True, ""


def _check_fixtures():
    from .serialize import export_series, import_series

    for seq_id, weights in O.FIXTURE_WEIGHTS.items():
        w = B.BinaryWeights.make(*weights)
        series = tree_root(w.kinds, 14)
        ints = O.series_integers(series)
        if ints != O.FIXTURES[seq_id][:14]:
            return False, f"{seq_id} prefix mismatch"
        if seq_id not in O.oeis_match(series, min_terms=12):
            return False, f"{seq_id} not matched"
    rng = random.Random(1984)
    for trial in range(25):
        s = Series([Q(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(12)])
        for fmt in ("json", "csv"):
            if import_series(export_series(s, fmt), fmt) != s:
                return False, f"round-trip failure ({fmt}) on trial {trial}"
    return True, ""


# Check id -> (claim, function); run_campaign reads it at call time.  The
# longest checks come first, so that a pool starts them first, not last.
_CHECKS: dict[str, tuple] = {
    "props/main-equation-d2": ("multi-branch tables solve the exact level equation", functools.partial(_check_main_equation, d=2)),
    "binary/alpha-closed-forms": ("decay coefficients match their closed forms", _check_binary_alpha),
    "paths/meander-closed-form": ("meander closed forms equal the step dynamic program", _check_meanders),
    "dary/alpha-agreement": ("single-branch closed form equals the graded recurrence", _check_dary_alpha),
    "binary/conjectured-form": ("conjectured polynomial form agrees with the recurrence", _check_conjecture),
    "binary/oracle": ("level rows equal structural enumeration", _check_binary_oracle),
    "walkers/random-turn": ("one-at-a-time families equal their dynamic program", _check_walkers_randomturn),
    "walkers/lock-step": ("boundary families equal the gap dynamic program", _check_walkers_lockstep),
    "dary/one-param-identity": ("closed family identity in the function field", _check_dary_one_param),
    "ternary/cross-check": ("ternary coefficients match the single-branch route", _check_ternary),
    "binary/one-param-family": ("closed family identity in the function field", _check_closed_family),
    "walkers/refined": ("marked counts match; corners give the models' adapted coefficients", _check_walkers_refined),
    "height/plane-trees": ("height-bounded series match enumeration; X is its rational form", _check_height),
    "walkers/quarter-plane": ("quadrant families equal the 2-D dynamic program", _check_quarterplane),
    "kernel/fuss-catalan": ("tree equation coefficients are the binomial family", _check_fuss_catalan),
    "binary/residuals": ("tree equation residual vanishes; X is its square-root form", _check_binary_residuals),
    "kernel/small-factor": ("factorization reconstructs and h/e identity holds", _check_hensel),
    "dary/oracle": ("level rows equal structural enumeration", _check_dary_oracle),
    "binary/t-of-x": ("root series is recovered from the decay-rate form", _check_t_of_x),
    "props/main-equation-arity-3-and-2": ("expansion tables solve the exact level equation", functools.partial(_check_main_equation, d=1)),
    "exact-arith/ring-laws": ("series ring laws on random rational inputs", _check_series_ring_laws),
    "dary/small-factor-valuation": ("small-factor coefficients vanish at z=0", _check_dary_small_factor),
    "harness/fixtures-and-roundtrip": ("bundled sequences match and serialization round-trips", _check_fixtures),
    "exact-arith/div-sqrt-roundtrip": ("division and square-root round trips", _check_div_roundtrip),
    "paths/excursions": ("excursion extraction gives the classical families", _check_excursions),
    "paths/monotonicity": ("meander counts grow with the start level", _check_path_monotone),
    "exact-arith/marker-convolution": ("marker extraction respects products", _check_marker_convolution),
    "walkers/symmetry": ("star series are symmetric in the two gaps", _check_walker_symmetry),
    "binary/stabilization": ("row coefficients stabilize once the bound clears size", _check_monotone_limit),
    "exact-arith/rational-identity": ("cross-multiplication identity checking", _check_rf_equal),
}


def available_suites() -> list[str]:
    return sorted({check_id.split("/", 1)[0] for check_id in _CHECKS})


def run_check(check_id: str, **inputs) -> CheckResult:
    """Run one registered check, at its own sizes but for ``inputs``; a crash is a fail."""
    claim, fn = _CHECKS[check_id]
    before = dict(COUNTS)
    started = time.perf_counter()
    try:
        verdict, detail = fn(**inputs)
    except Exception as exc:
        verdict, detail = False, f"exception: {exc}"
    elapsed = int((time.perf_counter() - started) * 1000)
    status = "pass" if verdict is True else "fail" if verdict is False else str(verdict)
    return CheckResult(check_id, claim, status, detail, elapsed, since(before))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_campaign(config: CampaignConfig) -> VerificationReport:
    """Run the selected checks, in worker processes when more than one CPU is usable.

    Workers take the checks in ``_CHECKS`` order, longest first; the report
    lists them in check-id order either way.
    """
    check_ids = [check_id for check_id in _CHECKS
                 if config.suites is None or any(check_id.startswith(s) for s in config.suites)]
    workers = min(_usable_cpus(), len(check_ids))
    # a fork copies only the calling thread, so a lock another thread holds
    # would stay held in the workers
    if workers > 1 and threading.active_count() == 1:
        # imported here, not at module level, where every import of the package would pay
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            results = _run_in_workers(workers, run_check, check_ids)
            return VerificationReport(tuple(sorted(results, key=lambda r: r.id)))
    return VerificationReport(tuple(map(run_check, sorted(check_ids))))


def _run_in_workers(workers: int, run, check_ids: list[str]) -> tuple[CheckResult, ...]:
    """``run`` over ``check_ids`` in forked worker processes, started and returned in
    that order; no worker outlives it.

    A worker that dies in a check raises ``BrokenProcessPool`` here, where
    a ``multiprocessing.Pool`` would wait for the lost result forever.
    """
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor

    sys.stdout.flush()
    sys.stderr.flush()
    # workers ignore Ctrl-C: this process gets it, cancels the checks not
    # yet started and waits for those running
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        return tuple(pool.map(run, check_ids))
