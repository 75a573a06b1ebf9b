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
from .errors import ConfigParse
from .kernel import (
    SeriesPoly,
    complete_homogeneous,
    fixed_point_solve,
    fuss_catalan,
    hensel_small_factor,
    newton_solve,
)
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
    order: int = 30


def parse_config(text: str) -> CampaignConfig:
    """Plain key=value configuration; '#' starts a comment."""
    suites = None
    order = 30
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParse(f"expected key=value, got {raw!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "suites":
            suites = tuple(s.strip() for s in value.split(",") if s.strip()) or None
        elif key == "order":
            try:
                order = int(value)
            except ValueError:
                raise ConfigParse(f"order must be an integer, got {value!r}",
                                  line=lineno, field=key) from None
            if order < 1:
                raise ConfigParse(f"order must be at least 1, got {order}",
                                  line=lineno, field=key)
        else:
            raise ConfigParse(f"unknown key {key!r}", line=lineno, field=key)
    return CampaignConfig(suites=suites, order=order)


# ---------------------------------------------------------------------------
# Check implementations.  Each returns (ok, detail) or a status string.
# Keyword inputs let the acceptance criteria run a check at other sizes;
# their defaults are the campaign's inputs.
# ---------------------------------------------------------------------------


def _check_series_ring_laws(order: int):
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


def _check_div_roundtrip(order: int):
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


def _check_marker_convolution(order: int):
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


def _check_rf_equal(order: int):
    x = MultiPoly.var(("X",), "X")
    one = MultiPoly.const(("X",), 1)
    a = RationalFunction(one - x**2, one - x)
    b = RationalFunction(one + x)
    if not a.equals(b):
        return False, "(1-X^2)/(1-X) != 1+X"
    if not RationalFunction(x, x * x).equals(RationalFunction(one, x)):
        return False, "X/X^2 != 1/X"
    # equality implies equal series at admissible assignments
    motzkin = newton_solve(
        SeriesPoly.make([Series.z(20), Series.z(20) - Series.one(20), Series.z(20)]), 0
    )
    if not a.eval_series({"X": motzkin}).matches(b.eval_series({"X": motzkin})):
        return False, "rf-equal pair disagrees after series evaluation"
    return True, ""


def _check_fuss_catalan(order: int):
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


def _check_hensel(order: int):
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


def _check_binary_oracle(order: int):
    for vec in _BINARY_VECTORS:
        w = B.BinaryWeights.make(*vec)
        for boundary in (1, 0):
            rows = B.binary_Tj_recurrence(w, boundary, 4, 9)
            spectra = B._extreme_spectra(w, 8, "max" if boundary else "min")
            for j in range(-1, 5):
                oracle = B.brute_force_embedded_binary(w, j, 8, boundary, spectra=spectra)
                got = list(rows[j].coeffs[:9])
                if got != oracle:
                    return False, f"weights {vec} boundary {boundary} level {j}"
    return True, ""


def _check_binary_residuals(order: int):
    for vec in _BINARY_VECTORS + ((1, 1, 1, 0, 0),):
        w = B.BinaryWeights.make(*vec)
        T = B.binary_T(w, order)
        z = Series.z(order)
        one = Series.one(order)
        resid = T - one - z * T * w.linear - z * T * T * w.quadratic
        if not resid.is_zero():
            return False, f"tree equation residual at {vec}"
        X = B.binary_X(w, order)
        if not B.binary_char_residual(w, X, T).is_zero():
            return False, f"characteristic residual at {vec}"
    return True, ""


def _check_binary_alpha(order: int):
    for vec in ((0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0), (2, 1, 1, 1, 1)):
        w = B.BinaryWeights.make(*vec)
        rec = B.binary_alpha(w, "recurrence", 12, order)
        clo = B.binary_alpha(w, "matched_closed", 12, order)
        for n in range(1, 13):
            if not rec.value(n).matches(clo.value(n)):
                return False, f"weights {vec}, index {n}"
    for vec in ((0, 0, 0, 0, 1), (1, 0, 0, 0, 1)):
        w = B.BinaryWeights.make(*vec)
        rec = B.binary_alpha(w, "recurrence", 12, order)
        clo = B.binary_alpha(w, "w3_closed", 12, order)
        for n in range(1, 13):
            if not rec.value(n).matches(clo.value(n)):
                return False, f"weights {vec}, index {n} (single-kind form)"
    return True, ""


def _check_closed_family(order: int):
    for vec in ((0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0)):
        w = B.BinaryWeights.make(*vec)
        parts = B._closed_family_parts(w, 6, min(order, 18))
        for j in range(-1, 7):
            if not B.closed_family_residual(w, j, min(order, 18), parts=parts).is_zero():
                return False, f"weights {vec}, level {j}"
    return True, ""


def _check_t_of_x(order: int):
    for vec in _BINARY_VECTORS + ((2, 1, 1, 1, 1),):
        w = B.BinaryWeights.make(*vec)
        if not B.t_of_x_identity(w, order):
            return False, f"weights {vec}"
    return True, ""


def _check_monotone_limit(order: int):
    w = B.BinaryWeights.make(0, 0, 1, 0, 0)
    rows = B.binary_Tj_recurrence(w, 1, 12, 12)
    T = B.binary_T(w, 12)
    for n in range(12):
        for j in range(n, 13):
            if j in rows and rows[j][n] != T[n]:
                return False, f"row {j} coefficient {n} has not stabilized"
    return True, ""


def _check_conjecture(order: int):
    report = B.conjecture_check(10, order)
    if report.status != "conjecture-consistent":
        return False, f"disagreement: {report.agreements}"
    return "conjecture-consistent", ""


def _check_height(order: int):
    counts = B.plane_tree_height_counts(8)
    for j in range(6):
        gf = B.height_plane_trees(j, 9)
        oracle = [sum(c for h, c in counts[n].items() if h <= j) for n in range(9)]
        if list(gf.coeffs) != oracle:
            return False, f"height bound {j}"
    for v1, v2 in ((0, 0), (1, 0), (2, 3)):
        clo = B.height_alpha(v1, v2, "closed", 8, 20)
        rec = B.height_alpha(v1, v2, "recurrence", 8, 20)
        for n in range(1, 9):
            if not clo.value(n).matches(rec.value(n)):
                return False, f"couplings {(v1, v2)}, index {n}"
    return True, ""


def _check_ternary(order: int):
    table = B.ternary_alpha(0, 0, 8, order)
    closed = D.dary_alpha_one_param_closed(D.DaryFamily("odd", 1), 8)
    branch = D.dary_char_factor(D.DaryFamily("odd", 1), order).elementary[0]
    for n in range(1, 9):
        want = closed[n - 1].eval_series({"X": branch})
        if not table.value(n).matches(want):
            return False, f"index {n} disagrees with the single-branch form"
    alphas = B.ternary_alpha(1, 2, 6, 20)
    resid = B.ternary_level_residual(1, 2, alphas, 2, 12)
    if not resid.is_zero():
        return False, "level residual with unary couplings"
    return True, ""


_DARY_FAMILIES = (
    D.DaryFamily("odd", 1),
    D.DaryFamily("odd", 2),
    D.DaryFamily("even", 1),
    D.DaryFamily("even", 2),
    D.DaryFamily("even", 3),
)


def _check_dary_one_param(order: int):
    for fam in _DARY_FAMILIES:
        if not D.verify_one_param(fam):
            return False, f"{fam.kind} d={fam.d}"
    return True, ""


def _check_dary_alpha(order: int):
    for fam in _DARY_FAMILIES[:4]:
        closed = D.dary_alpha_one_param_closed(fam, 10)
        rec = D.dary_alpha_one_param_recurrence(fam, 10)
        for n in range(2, 11):
            if not closed[n - 1].equals(rec[n - 1]):
                return False, f"{fam.kind} d={fam.d} index {n}"
    return True, ""


def _check_dary_oracle(order: int):
    for fam, n_max in ((D.DaryFamily("odd", 1), 7), (D.DaryFamily("even", 1), 7),
                       (D.DaryFamily("odd", 2), 5), (D.DaryFamily("even", 2), 5)):
        rows = D.dary_Tj_recurrence(fam, 3, n_max + 1)
        spectra = D._oracle_spectra(fam, n_max)
        for j in range(0, 4):
            oracle = D.brute_force_dary(fam, j, n_max, spectra=spectra)
            if list(rows[j].coeffs[: n_max + 1]) != oracle:
                return False, f"{fam.kind} d={fam.d} level {j}"
    return True, ""


def _check_dary_small_factor(order: int):
    for fam in _DARY_FAMILIES:
        small = D.dary_char_factor(fam, 12)
        for e in small.elementary:
            v = e.valuation()
            if v is None or v < 1:
                return False, f"{fam.kind} d={fam.d}: coefficient with valuation {v}"
    return True, ""


def _check_main_equation_small(order: int):
    for fam in (D.DaryFamily("odd", 1), D.DaryFamily("even", 1)):
        report = D.verify_main_equation(fam, 3, 15)
        if not report.ok:
            return False, f"{fam.kind} d={fam.d}: {report.first_failure}"
    return True, ""


def _check_main_equation_d2(order: int):
    for fam in (D.DaryFamily("odd", 2), D.DaryFamily("even", 2)):
        report = D.verify_main_equation(fam, 3, 15)
        if not report.ok:
            return False, f"{fam.kind} d={fam.d}: {report.first_failure}"
    return True, ""


def _check_meanders(
    order: int,
    step_sets=("-1:1,1:1", "-1:1,0:1,1:1", "-2:1,-1:2,1:1,3:1", "-1:2,1:3", "-3:1,2:1/2"),
    max_order: int = 25,
):
    for spec in step_sets:
        result = P.verify_meander_closed_form(parse_step_set(spec), 5, min(order, max_order))
        if not result.ok:
            return False, f"{spec}: first mismatch {result.first_mismatch}"
    return True, ""


def _check_excursions(order: int):
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


def _check_path_monotone(order: int):
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


def _check_walkers_lockstep(order: int):
    n = min(order, 20)
    base = W._lockstep_base(2, n)
    for boundary, (u, w) in (("vicious", (0, 0)), ("osculating", (1, 0)), ("updown", (1, 1))):
        dp = W._lockstep_columns(u, w, _STAR_CELLS, n)
        parts = W._star_parts(boundary, n, base, 4)
        for i, j in _STAR_CELLS:
            if boundary == "osculating" and (i, j) == (0, 0):
                continue
            if W.lockstep_star(boundary, i, j, n, parts=parts).series != dp[i, j]:
                return False, f"{boundary} at {(i, j)}"
    return True, ""


def _check_walkers_refined(
    order: int, marks=((Q(1, 2), Q(1, 3)), (Q(2), Q(1))), max_order: int = 16
):
    n = min(order, max_order)
    base = W._lockstep_base(2, n)
    for u, w in marks:
        dp = W._lockstep_columns(u, w, _STAR_CELLS, n)
        parts = W._refined_parts(u, w, n, base, 4)
        for i, j in _STAR_CELLS:
            if (i, j) == (0, 0):
                continue
            if W.lockstep_refined(u, w, i, j, n, parts=parts).series != dp[i, j]:
                return False, f"marks {(str(u), str(w))} at {(i, j)}"
    base = W._lockstep_base(2, 12)
    for (u, w), boundary in (((0, 0), "vicious"), ((1, 0), "osculating"), ((1, 1), "updown")):
        refined, star = W._refined_parts(u, w, 12, base, 3), W._star_parts(boundary, 12, base, 3)
        for i in range(4):
            for j in range(4):
                a = W.lockstep_refined(u, w, i, j, 12, parts=refined).series
                b = W.lockstep_star(boundary, i, j, 12, parts=star).series
                if a != b:
                    return False, f"corner {(u, w)} != {boundary} at {(i, j)}"
    return True, ""


def _check_walkers_randomturn(order: int):
    n = min(order, 20)
    # the osculating stars read T X^k up to k = (4 + 1) + (4 + 1)
    parts = {steps: W._randomturn_parts(steps, n, 10) for steps in ("dyck", "motzkin")}
    for steps in ("dyck", "motzkin"):
        for boundary in ("vicious", "osculating"):
            dp = W._randomturn_columns(steps, boundary, _STAR_CELLS, n)
            for i, j in _STAR_CELLS:
                closed = W.randomturn_gf(steps, boundary, i, j, n, parts=parts[steps]).series
                if closed != dp[i, j]:
                    return False, f"{steps} {boundary} at {(i, j)}"
    z = Series.z(n)
    one = Series.one(n)
    rt = W.randomturn_gf("dyck", "osculating", 0, 0, n, parts=parts["dyck"]).series
    ref = (one - z * 2 - ((one + z * 2) * (one - z * 6)).sqrt()) / (z * z * 8)
    if not rt.matches(ref):
        return False, "dyck radical form"
    rtm = W.randomturn_gf("motzkin", "osculating", 0, 0, n, parts=parts["motzkin"]).series
    refm = (one - z * 5 - ((one - z) * (one - z * 9)).sqrt()) / (z * z * 8)
    if not rtm.matches(refm):
        return False, "motzkin radical form"
    return True, ""


def _check_quarterplane(order: int, grid: int = 3, doubled_cells=((1, 2),)):
    n = min(order, 20)
    cells = [(i, j) for i in range(grid) for j in range(grid)]
    k_max = max(i + j + 2 for i, j in cells + list(doubled_cells))
    parts = {model: W._quarterplane_parts(model, n, k_max) for model in ("S1", "S2")}
    closed = {(model, i, j): W.quarterplane_gf(model, i, j, n, parts=parts[model])
              for model in ("S1", "S2") for i, j in cells}
    for model in ("S1", "S2"):
        dp = W._quarterplane_columns(model, cells, n)
        for i, j in cells:
            if closed[model, i, j] != dp[i, j]:
                return False, f"{model} at {(i, j)}"
    for i, j in doubled_cells:  # the grid's series, or the cell's own outside it
        s1, s2 = (closed.get((model, i, j)) or W.quarterplane_gf(model, i, j, n, parts=parts[model])
                  for model in ("S1", "S2"))
        if list(s2.coeffs) != [c * 2**k for k, c in enumerate(s1.coeffs)]:
            return False, f"S2 != S1 at doubled variable at {(i, j)}"
    k_max = 2 * grid
    qp, rt = W._quarterplane_parts("S2", 12, k_max), W._randomturn_parts("dyck", 12, k_max)
    for i, j in cells:
        if not W.quarterplane_gf("S2", i, j, 12, parts=qp).matches(
            W.randomturn_gf("dyck", "osculating", i, j, 12, parts=rt).series
        ):
            return False, f"S2 != random-turn osculating at {(i, j)}"
    return True, ""


def _check_walker_symmetry(order: int):
    star = W._star_parts("updown", 10, W._lockstep_base(2, 10), 3)
    rt = W._randomturn_parts("motzkin", 10, 6)
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


def _check_fixtures(order: int):
    from .serialize import export_series, import_series

    for seq_id, weights in O.FIXTURE_WEIGHTS.items():
        w = B.BinaryWeights.make(*weights)
        series = B.binary_T(w, 14)
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


# Check id -> (claim, function); run_campaign reads it at call time.
_CHECKS: dict[str, tuple] = {
    "exact-arith/ring-laws": ("series ring laws on random rational inputs", _check_series_ring_laws),
    "exact-arith/div-sqrt-roundtrip": ("division and square-root round trips", _check_div_roundtrip),
    "exact-arith/marker-convolution": ("marker extraction respects products", _check_marker_convolution),
    "exact-arith/rational-identity": ("cross-multiplication identity checking", _check_rf_equal),
    "kernel/fuss-catalan": ("tree equation coefficients are the binomial family", _check_fuss_catalan),
    "kernel/small-factor": ("factorization reconstructs and h/e identity holds", _check_hensel),
    "binary/oracle": ("level rows equal structural enumeration", _check_binary_oracle),
    "binary/residuals": ("tree and characteristic equation residuals vanish", _check_binary_residuals),
    "binary/alpha-closed-forms": ("decay coefficients match their closed forms", _check_binary_alpha),
    "binary/one-param-family": ("closed family satisfies the level recurrence", _check_closed_family),
    "binary/t-of-x": ("root series is recovered from the decay-rate form", _check_t_of_x),
    "binary/stabilization": ("row coefficients stabilize once the bound clears size", _check_monotone_limit),
    "binary/conjectured-form": ("conjectured polynomial form agrees with the recurrence", _check_conjecture),
    "height/plane-trees": ("height-bounded generating functions match enumeration", _check_height),
    "ternary/cross-check": ("ternary coefficients match the single-branch route", _check_ternary),
    "dary/one-param-identity": ("closed family identity in the function field", _check_dary_one_param),
    "dary/alpha-agreement": ("single-branch closed form equals the graded recurrence", _check_dary_alpha),
    "dary/oracle": ("level rows equal structural enumeration", _check_dary_oracle),
    "dary/small-factor-valuation": ("small-factor coefficients vanish at z=0", _check_dary_small_factor),
    "props/main-equation-arity-3-and-2": ("expansion tables solve the exact level equation", _check_main_equation_small),
    "props/main-equation-d2": ("multi-branch tables solve the exact level equation", _check_main_equation_d2),
    "paths/meander-closed-form": ("meander closed forms equal the step dynamic program", _check_meanders),
    "paths/excursions": ("excursion extraction gives the classical families", _check_excursions),
    "paths/monotonicity": ("meander counts grow with the start level", _check_path_monotone),
    "walkers/lock-step": ("boundary families equal the gap dynamic program", _check_walkers_lockstep),
    "walkers/refined": ("marked counting matches at sampled marks and corners", _check_walkers_refined),
    "walkers/random-turn": ("one-at-a-time families equal their dynamic program", _check_walkers_randomturn),
    "walkers/quarter-plane": ("quadrant families equal the 2-D dynamic program", _check_quarterplane),
    "walkers/symmetry": ("star series are symmetric in the two gaps", _check_walker_symmetry),
    "harness/fixtures-and-roundtrip": ("bundled sequences match and serialization round-trips", _check_fixtures),
}


def available_suites() -> list[str]:
    return sorted({check_id.split("/", 1)[0] for check_id in _CHECKS})


def run_check(check_id: str, order: int, **inputs) -> CheckResult:
    """Run one registered check; a crashed check is a failed check."""
    claim, fn = _CHECKS[check_id]
    before = dict(COUNTS)
    started = time.perf_counter()
    try:
        verdict, detail = fn(order, **inputs)
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
    """Run the selected checks, in worker processes when more than one CPU is usable."""
    check_ids = [check_id for check_id in sorted(_CHECKS)
                 if config.suites is None or any(check_id.startswith(s) for s in config.suites)]
    run = functools.partial(run_check, order=config.order)
    workers = min(_usable_cpus(), len(check_ids))
    # a fork copies only the calling thread, so a lock another thread holds
    # would stay held in the workers
    if workers > 1 and threading.active_count() == 1:
        # imported here, not at module level, where every import of the package would pay
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return VerificationReport(_run_in_workers(workers, run, check_ids))
    return VerificationReport(tuple(map(run, check_ids)))


def _run_in_workers(workers: int, run, check_ids: list[str]) -> tuple[CheckResult, ...]:
    """``run`` over ``check_ids`` in forked worker processes, in order; no worker outlives it.

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
