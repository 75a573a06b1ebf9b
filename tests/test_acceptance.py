"""Acceptance suite: one table row per criterion, each printing a PASS/FAIL line.

A criterion runs registered campaign checks (`embtrees.campaign._CHECKS`)
at its own sizes, so each claim has one definition, shared with
`embtrees verify`.  The three claims with no campaign check stay as
explicit assertions.  Every check is exact (rational arithmetic, no
tolerances); the stated time budgets are asserted as well.  Run with
`pytest -s` to see the per-criterion lines as they complete.
"""

import time
from fractions import Fraction as Q
from itertools import product

import pytest

from embtrees import campaign
from embtrees.binary import (
    BinaryWeights,
    adapt_lambda,
    binary_Tj_closed,
    conjecture_polynomials,
)
from embtrees.kernel import family_base
from embtrees.oeis import series_integers
from embtrees.series import Series
from embtrees.walkers import quarterplane_gf


def _adapted_families():
    order = 40
    for weights, boundary, (e1, e2, e3, e4) in (
        ((0, 0, 1, 0, 0), 1, (2, 7, 4, 5)),
        ((0, 0, 0, 1, 1), 0, (1, 4, 2, 3)),
    ):
        w = BinaryWeights.make(*weights)
        lam = adapt_lambda(w, boundary, order + 6)
        small, T = family_base(w.kinds, order)
        X = small.elementary[0]
        one = Series.one(order)
        xp = [one]
        for _ in range(14):
            xp.append(xp[-1] * X)
        for j in range(-1, 7):
            got = binary_Tj_closed(w, lam, j, order)
            ref = T * (one - xp[j + e1]) * (one - xp[j + e2]) / (
                (one - xp[j + e3]) * (one - xp[j + e4])
            )
            assert got.matches(ref), (weights, j)


def _initial_polynomials():
    polys = conjecture_polynomials(3)
    assert polys[0] == {0: Q(1)}
    assert polys[1] == {0: Q(1)}
    assert polys[2] == {4: Q(1), 3: Q(2), 1: Q(2), 0: Q(1)}


def _s1_prefix():
    s1 = quarterplane_gf("S1", 0, 0, 20)
    assert series_integers(s1.truncate(6)) == [1, 1, 2, 4, 9, 21]


_STEP_SETS = ("-1:1,1:1", "-1:1,0:1,1:1", "-2:1,1:1", "-1:2,1:3",
              "-2:1,-1:2,1:1,3:1", "-3:1,2:1/2", "-3:2,3:1")
_GRID_5 = tuple(product(range(5), repeat=2))

# (number, label, budget in seconds, [(check id, inputs)]); an input left
# out takes the size the campaign runs the check at.
CRITERIA = [
    (1, "tree-equation coefficients are the binomial family to n=200", 10.0,
     [("kernel/fuss-catalan", {"order": 201})]),
    (2, "adapted closed family reproduces both displayed level ratios", 5.0, []),
    (3, "level rows equal structural enumeration (four weight vectors)", 60.0,
     [("binary/oracle", {})]),
    (4, "closed decay coefficients equal the recurrence to n=12", 10.0,
     [("binary/alpha-closed-forms", {"order": 30})]),
    (5, "conjectured polynomial form: initial values and n<=10 agreement", 30.0,
     [("binary/conjectured-form", {"order": 40})]),
    (6, "height-bounded plane trees match enumeration (n<=8, j<=5)", 10.0,
     [("height/plane-trees", {})]),
    (7, "one-parameter family identities in the function field", 30.0,
     [("dary/one-param-identity", {}), ("binary/one-param-family", {})]),
    (8, "expansion tables solve the exact level equation (d=2)", 60.0,
     [("props/main-equation-d2", {})]),
    (9, "meander closed forms equal the step DP; classical excursions", 60.0,
     [("paths/meander-closed-form", {"order": 40, "step_sets": _STEP_SETS}),
      ("paths/excursions", {"order": 40})]),
    # The osculating and refined closed forms are checked away from the
    # triple-point cell (0,0): the closed family extrapolates to an
    # alternating non-counting series there (no legal move exists from a
    # triple point).  The cell is pinned in test_walkers instead.
    (10, "walker star families equal the gap DP (i,j<=4, n<=20)", 120.0,
     [("walkers/lock-step", {"order": 20}),
      ("walkers/refined", {"order": 20, "marks": ((Q(1, 2), Q(1, 3)), (Q(2), Q(5, 7)))})]),
    (11, "random-turn radical, quadrant families and their DPs", 60.0,
     [("walkers/random-turn", {"order": 20}),
      ("walkers/quarter-plane", {"order": 20, "grid": 5, "doubled_cells": _GRID_5})]),
    (12, "bundled sequence prefixes match the computed series, offline", 10.0,
     [("harness/fixtures-and-roundtrip", {})]),
]

# Claims no campaign check makes, asserted directly.
_EXPLICIT = {2: _adapted_families, 5: _initial_polynomials, 11: _s1_prefix}


@pytest.mark.parametrize("number,label,budget,checks", CRITERIA,
                         ids=[f"{row[0]:02d}" for row in CRITERIA])
def test_criterion(number, label, budget, checks):
    started = time.perf_counter()
    status = "FAIL"
    try:
        for check_id, inputs in checks:
            result = campaign.run_check(check_id, **inputs)
            assert result.status != "fail", f"{check_id}: {result.detail}"
        _EXPLICIT.get(number, lambda: None)()
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - started
        print(f"criterion {number:02d} {status} ({elapsed:6.2f}s / {budget:.0f}s budget): {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criteria_name_registered_checks():
    named = {check_id for *_, checks in CRITERIA for check_id, _ in checks}
    assert named <= set(campaign._CHECKS)


# Every (criterion, check) pair: the check forced to fail, the others of the
# row forced to pass, fails the criterion, so each row runs the registry.
_NAMED = [(row, check_id) for row in CRITERIA for check_id, _ in row[3]]


@pytest.mark.parametrize("row,forced", _NAMED,
                         ids=[f"{row[0]:02d}-{check_id}" for row, check_id in _NAMED])
def test_criterion_fails_with_its_check(row, forced, monkeypatch):
    for check_id, _ in row[3]:
        claim, _ = campaign._CHECKS[check_id]
        verdict = (False, "forced failure") if check_id == forced else (True, "")
        monkeypatch.setitem(campaign._CHECKS, check_id,
                            (claim, lambda verdict=verdict, **_: verdict))
    with pytest.raises(AssertionError, match=f"{forced}: forced failure"):
        test_criterion(*row)
