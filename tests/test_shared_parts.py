"""Pieces built once per check: same results, no repeated solves, no state kept.

The per-cell closed forms take an optional ``parts`` (or ``spectra``)
argument holding what does not depend on the cell or level.  Passed in,
it must give results equal to the default path, which builds the pieces
itself; the campaign must build them once per check and keep nothing
from one run to the next.
"""

import gc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees import binary as B
from embtrees import campaign, cli
from embtrees import dary as D
from embtrees import paths as P
from embtrees import walkers as W
from embtrees.counts import COUNTS, since
from embtrees.levels import label_spectra
from embtrees.series import Series
from embtrees.steps import StepSet


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
    # its runs.  The first round in a process imports the pool's modules,
    # and importing them leaves cycles of their own: import them first
    import concurrent.futures  # noqa: F401
    import multiprocessing  # noqa: F401

    gc.collect()
    gc.disable()
    try:
        assert campaign.run_campaign(campaign.CampaignConfig()).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_check_in_process_leaves_no_cyclic_garbage():
    # what a worker runs: run_check on one check after another.  The decay
    # rates X come with T from one family_base call, so a caller that solves
    # the same root again shows in the kernel.tree_root count
    gc.collect()
    gc.disable()
    try:
        results = [campaign.run_check(check_id) for check_id in sorted(campaign._CHECKS)]
        assert "fail" not in {r.status for r in results}
        assert gc.collect() == 0
    finally:
        gc.enable()
    # 13 of them are the step sets' unary roots: the free walks, through family_base
    assert sum(dict(r.counts)["kernel.tree_root"] for r in results) == 59


@pytest.mark.parametrize("check_id", ["binary/one-param-family", "dary/one-param-identity"])
def test_one_param_identities_solve_no_root_and_make_no_marker_product(check_id):
    # each family's claim is proved in Q(X, lam, Y)[T]: no series T, X or lam is built,
    # so no series product is made, nor a marker series from one
    result = campaign.run_check(check_id)
    assert result.status == "pass"
    counts = dict(result.counts)
    assert (counts["kernel.tree_root"], counts["kernel.hensel"], counts["series.mul"]) == (0, 0, 0)


def test_closed_binary_cli_path_solves_two_roots(capsys):
    # adapt_lambda checks its branch on the base it solved it from; the row at --order
    # builds the second base
    before = dict(COUNTS)
    argv = ["trees", "--w1", "1", "--level", "2", "--method", "closed", "--order", "12"]
    assert cli.main(argv) == 0
    counts = dict(since(before))
    assert (counts["kernel.tree_root"], counts["kernel.hensel"]) == (2, 2)
    assert capsys.readouterr().out.startswith('{"order": 12, "coeffs": ["1", "1", "2", "5", "13"')


def test_lockstep_check_solves_once_per_weight_and_order():
    # one order and one step weighting: one characteristic solve serves the three corners
    result = campaign.run_check("walkers/lock-step")
    assert result.status == "pass"
    assert dict(result.counts)["kernel.hensel"] == 1


marks = st.fractions(min_value=0, max_value=3, max_denominator=7)


@settings(max_examples=15, deadline=None)
@given(marks, marks, st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4))
                              .filter(lambda c: c != (0, 0)), min_size=1, max_size=4))
def test_refined_parts_equal_default(u, w, cells):
    parts = W._refined_parts(u, w, W._lockstep_base(12), 4)
    for i, j in cells:
        assert W.lockstep_refined(u, w, i, j, 12, parts=parts) == W.lockstep_refined(u, w, i, j, 12)


@pytest.mark.parametrize("boundary", ["vicious", "osculating", "updown"])
def test_star_parts_equal_default(boundary):
    parts = W._refined_parts(*W._CORNERS[boundary], W._lockstep_base(12), 4)
    for i, j in ((0, 1), (2, 0), (3, 4)):
        assert W.lockstep_star(boundary, i, j, 12, parts=parts) == W.lockstep_star(boundary, i, j, 12)


def test_parts_hold_the_terms_to_the_highest_asked():
    X, T = base = W._lockstep_base(12)
    alpha, gamma = W._refined_adapted(*W._CORNERS["osculating"], X)
    T_, A, G = W._refined_parts(*W._CORNERS["osculating"], base, 3)
    assert T_ == T  # beta is alpha: one list serves both gaps
    assert A == [T * alpha * X**k for k in range(4)]
    assert G == [T * gamma * X**k for k in range(7)]
    # random-turn and quarter-plane stars are the vicious corner (alpha, gamma) = (1, -1)
    one, z = Series.one(12), Series.z(12)
    for (T, A, G), total in ((W._randomturn_parts("motzkin", 12, 3), 9),
                             (W._quarterplane_parts("S1", 12, 3), 3)):
        X = A[1] / A[0]
        assert T == A[0] == one / (one - z * total)
        assert A == [T * X**k for k in range(4)]
        assert G == [-(T * X**k) for k in range(7)]


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
    spectra = label_spectra(w.kinds, 6, "max" if boundary else "min")
    for j in range(-1, 5):
        assert (B.brute_force_embedded_binary(w, j, 6, boundary, spectra=spectra)
                == B.brute_force_embedded_binary(w, j, 6, boundary))


@pytest.mark.parametrize("kind,d", [("odd", 1), ("even", 1), ("odd", 2), ("even", 2)])
def test_dary_oracle_spectra_equal_default(kind, d):
    fam = D.DaryFamily(kind, d)
    spectra = label_spectra(fam.kinds, 5, "max")
    for j in range(4):
        assert D.brute_force_dary(fam, j, 5, spectra=spectra) == D.brute_force_dary(fam, j, 5)
