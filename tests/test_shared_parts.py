"""Pieces built once per check: same results, no repeated solves, no state kept.

The per-cell closed forms take an optional ``parts`` (or ``spectra``)
argument holding what does not depend on the cell or level.  Passed in,
it must give results equal to the default path, which builds the pieces
itself; the campaign must build them once per check and keep nothing
from one run to the next.
"""

import gc
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees import binary as B
from embtrees import campaign
from embtrees import dary as D
from embtrees import kernel
from embtrees import paths as P
from embtrees import walkers as W
from embtrees.series import Series
from embtrees.steps import StepSet


def count_calls(monkeypatch, module, name):
    """Replace ``name`` in every embtrees module that bound it; return the call log."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("embtrees") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_campaign_rounds_repeat_the_same_work():
    # the counts come back in the results, from whichever process ran a check
    solves = ("kernel.newton", "kernel.hensel", "levels.label_spectra")
    config = campaign.CampaignConfig(suites=("walkers", "paths", "binary", "dary"))
    counts = []
    for _ in range(2):
        report = campaign.run_campaign(config)
        assert report.ok
        counts.append([sum(dict(r.counts)[name] for r in report.results) for name in solves])
    assert counts[0] == counts[1]
    assert all(counts[0])


def test_a_campaign_round_leaves_no_cyclic_garbage():
    # every object a round makes is freed by reference counting: nothing
    # waits for the cyclic collector, which would let memory grow between
    # its runs
    gc.collect()
    gc.disable()
    try:
        assert campaign.run_campaign(campaign.CampaignConfig()).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_check_in_process_leaves_no_cyclic_garbage():
    # what a worker runs: run_check on one check after another
    gc.collect()
    gc.disable()
    try:
        results = [campaign.run_check(check_id, 30) for check_id in sorted(campaign._CHECKS)]
        assert "fail" not in {r.status for r in results}
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lockstep_check_solves_once_per_weight_and_order(monkeypatch):
    calls = count_calls(monkeypatch, kernel, "newton_solve")
    assert campaign._check_walkers_lockstep(20) == (True, "")
    equations = [args[0] for args in calls]
    assert equations and len(equations) == len(set(equations))


marks = st.fractions(min_value=0, max_value=3, max_denominator=7)


@settings(max_examples=15, deadline=None)
@given(marks, marks, st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4))
                              .filter(lambda c: c != (0, 0)), min_size=1, max_size=4))
def test_refined_parts_equal_default(u, w, cells):
    parts = W._refined_parts(u, w, 12, W._lockstep_base(2, 12), 4)
    for i, j in cells:
        assert W.lockstep_refined(u, w, i, j, 12, parts=parts) == W.lockstep_refined(u, w, i, j, 12)


@pytest.mark.parametrize("boundary", ["vicious", "osculating", "updown"])
def test_star_parts_equal_default(boundary):
    parts = W._star_parts(boundary, 12, W._lockstep_base(2, 12), 4)
    for i, j in ((0, 1), (2, 0), (3, 4)):
        assert W.lockstep_star(boundary, i, j, 12, parts=parts) == W.lockstep_star(boundary, i, j, 12)


def test_parts_hold_the_terms_to_the_highest_asked():
    X, T = base = W._lockstep_base(2, 12)
    alpha, beta, gamma = W.lockstep_adapt("osculating", 12, base=base)
    T_, A, B, G = W._star_parts("osculating", 12, base, 3)
    assert T_ == T and B is A  # beta is alpha: one list serves both gaps
    assert A == [T * alpha * X**k for k in range(4)]
    assert G == [T * gamma * X**k for k in range(7)]
    one, z = Series.one(12), Series.z(12)
    for P, total in ((W._randomturn_parts("motzkin", 12, 7), 9),
                     (W._quarterplane_parts("S1", 12, 7), 3)):
        X = P[1] / P[0]
        assert P[0] == one / (one - z * total)
        assert P == [P[0] * X**k for k in range(8)]


@pytest.mark.parametrize("steps", ["dyck", "motzkin"])
def test_randomturn_and_quarterplane_parts_equal_default(steps):
    rt, qp = W._randomturn_parts(steps, 12, 9), W._quarterplane_parts("S2", 12, 9)
    for i, j in ((4, 3), (0, 2), (2, 1)):
        for boundary in ("vicious", "osculating"):
            assert (W.randomturn_gf(steps, boundary, i, j, 12, parts=rt)
                    == W.randomturn_gf(steps, boundary, i, j, 12))
        assert W.quarterplane_gf("S2", i, j, 12, parts=qp) == W.quarterplane_gf("S2", i, j, 12)


@st.composite
def step_sets(draw):
    """Two-sided step sets: jumps in [-3, 3], positive rational weights."""
    jumps = {draw(st.integers(-3, -1)), draw(st.integers(1, 3))}
    jumps |= set(draw(st.lists(st.integers(-3, 3), max_size=2)))
    weight = st.fractions(min_value=Q(1, 5), max_value=3, max_denominator=5)
    return StepSet.make([(b, draw(weight)) for b in sorted(jumps)])


@settings(max_examples=10, deadline=None)
@given(step_sets())
def test_meander_parts_equal_default(steps):
    parts = P._meander_parts(steps, 10, 5)
    for level in range(6):
        assert P.meander_gf(steps, level, 10, parts=parts) == P.meander_gf(steps, level, 10)


weights = st.sampled_from([Q(0), Q(1, 2), Q(1), Q(2)])


@settings(max_examples=15, deadline=None)
@given(weights, weights, weights, weights, weights, st.sampled_from([0, 1]))
def test_binary_oracle_spectra_equal_default(v1, v2, w1, w2, w3, boundary):
    w = B.BinaryWeights.make(v1, v2, w1, w2, w3)
    spectra = B._extreme_spectra(w, 6, "max" if boundary else "min")
    for j in range(-1, 5):
        assert (B.brute_force_embedded_binary(w, j, 6, boundary, spectra=spectra)
                == B.brute_force_embedded_binary(w, j, 6, boundary))


@pytest.mark.parametrize("kind,d", [("odd", 1), ("even", 1), ("odd", 2), ("even", 2)])
def test_dary_oracle_spectra_equal_default(kind, d):
    fam = D.DaryFamily(kind, d)
    spectra = D._oracle_spectra(fam, 5)
    for j in range(4):
        assert D.brute_force_dary(fam, j, 5, spectra=spectra) == D.brute_force_dary(fam, j, 5)


@pytest.mark.parametrize("vec", [(0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0)])
def test_closed_family_parts_equal_default(vec):
    w = B.BinaryWeights.make(*vec)
    parts = B._closed_family_parts(w, 6, 8)
    for j in range(-1, 7):
        assert B.closed_family_residual(w, j, 8, parts=parts) == B.closed_family_residual(w, j, 8)
