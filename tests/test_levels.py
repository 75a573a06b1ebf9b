from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees import binary as B
from embtrees import campaign
from embtrees import dary as D
from embtrees.binary import BinaryWeights, _height_kinds, _ternary_kinds
from embtrees.dary import DaryFamily
from embtrees.kernel import SeriesPoly, family_base, newton_solve, tree_root
from embtrees.levels import (_x_powers, alpha_recurrence, label_spectra, level_equation,
                             level_residual, level_rows, recomputed_alphas)
from embtrees.multipoly import MultiPoly, RationalFunction
from embtrees.series import Series

N_MAX = 6
J_MAX = 3

kind_strategy = st.tuples(
    st.sampled_from([Q(1, 2), Q(1), Q(2)]),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(tuple),
)


def close_under_negation(kinds):
    """Add the mirror image of every kind, as both families' kind lists have."""
    out = list(kinds)
    for weight, offsets in kinds:
        mirror = tuple(-o for o in offsets)
        if sorted(mirror) != sorted(offsets):
            out.append((weight, mirror))
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(kind_strategy, min_size=1, max_size=3).map(close_under_negation))
def test_level_rows_equal_label_spectra(kinds):
    # kinds that neither the binary nor the d-ary family produces: arities
    # 1-3 mixed in one list, offsets up to 2, rational weights
    highest = label_spectra(kinds, N_MAX, "max")
    lowest = label_spectra(kinds, N_MAX, "min")
    rows_one = level_rows(kinds, 1, J_MAX, N_MAX + 1)
    rows_zero = level_rows(kinds, 0, J_MAX, N_MAX + 1)
    for j in range(J_MAX + 1):
        assert list(rows_one[j].coeffs) == [
            sum((c for m, c in spec.items() if m <= j), Q(0)) for spec in highest
        ]
        assert list(rows_zero[j].coeffs) == [
            sum((c for m, c in spec.items() if m >= -j), Q(0)) for spec in lowest
        ]


@settings(max_examples=30, deadline=None)
@given(st.lists(kind_strategy, min_size=1, max_size=3).map(close_under_negation),
       st.sampled_from([0, 1]))
def test_level_equation_vanishes_on_the_rows(kinds, pin):
    # offsets reach 2, so the rows up to J_MAX + 2 hold every row level j reads
    order = N_MAX + 1
    rows = level_rows(kinds, pin, J_MAX + 2, order)
    for j in range(J_MAX + 1):
        assert level_equation(kinds, rows, j, Series.z(order)).is_zero()


# ---------------------------------------------------------------------------
# The single-branch expansion recurrence
# ---------------------------------------------------------------------------


def rate_and_root(kinds, order):
    """X and T of a kind list with one small branch, from ``family_base``."""
    small, T = family_base(kinds, order)
    return small.elementary[0], T


def ref_binary_alpha(w, n_max, order):
    """The binary recurrence as first written, divisor fac (1 - X^n)(1 - X^(n+2))."""
    X, T = rate_and_root(w.kinds, order)
    one = Series.one(order)
    xp = _x_powers(X, 2 * n_max + 3)
    fac = one / T * w.v1 + (w.w1 + w.w3)
    alphas = [one]
    for n in range(1, n_max):
        rhs = Series.zero(order)
        for i in range(1, n + 1):
            weight_poly = Series.zero(order)
            if w.w1:
                weight_poly = weight_poly + xp[2 * (n + 1 - i)] * w.w1
            if w.w2:
                weight_poly = weight_poly + xp[n + 1] * w.w2
            if w.w3:
                weight_poly = weight_poly + (xp[n + 1 - i] + xp[n + 1 + i]) * w.w3
            rhs = rhs + alphas[i - 1] * alphas[n - i] * weight_poly
        alphas.append(rhs / (fac * (one - xp[n]) * (one - xp[n + 2])))
    return alphas


def ref_height_alpha(v1, v2, n_max, order):
    """The height recurrence as first written, divisor fac (1 - X^n)."""
    v1, v2 = Q(v1), Q(v2)
    X, T = rate_and_root(_height_kinds(v1, v2), order)
    one = Series.one(order)
    fac = one / T * v1 + 1
    xp = _x_powers(X, n_max + 2)
    alphas = [one]
    for n in range(1, n_max):
        rhs = Series.zero(order)
        for i in range(1, n + 1):
            rhs = rhs + alphas[i - 1] * alphas[n - i] * xp[n + 1 - i]
        alphas.append(rhs / (fac * (one - xp[n])))
    return alphas


def ref_ternary_alpha(v1, v2, n_max, order):
    """The ternary recurrence as first written: pair block minus triple block."""
    v1, v2 = Q(v1), Q(v2)
    X, T = rate_and_root(_ternary_kinds(v1, v2), order)
    one = Series.one(order)
    fac = one / (T * T) * v1 + 1
    xp = _x_powers(X, 2 * n_max + 3)
    alphas = [one]
    for n in range(1, n_max):
        rhs = Series.zero(order)
        for i in range(1, n + 1):
            rhs = rhs + alphas[i - 1] * alphas[n - i] * (
                xp[2 * (n + 1 - i)] + xp[n + 1 - i] + xp[n + 1 + i]
            )
        for i1 in range(1, n):
            for i2 in range(1, n + 1 - i1):
                i3 = n + 1 - i1 - i2
                if i3 < 1:
                    continue
                rhs = rhs - alphas[i1 - 1] * alphas[i2 - 1] * alphas[i3 - 1] * xp[
                    n + 1 + i1 - i3
                ]
        alphas.append(rhs / (fac * (one - xp[n]) * (one - xp[n + 2])))
    return alphas


# the campaign's binary vectors and the conjecture's (v1, v2, 1, 0, 1)
@pytest.mark.parametrize("vec,n_max", [
    ((0, 0, 1, 0, 0), 12), ((0, 0, 0, 1, 1), 12), ((1, 0, 1, 0, 0), 12), ((2, 1, 1, 1, 1), 12),
    ((0, 0, 0, 0, 1), 12), ((1, 0, 0, 0, 1), 12),
    ((0, 0, 1, 0, 1), 10), ((1, 0, 1, 0, 1), 10), ((1, 2, 1, 0, 1), 10)])
def test_binary_recurrence_equals_reference(vec, n_max):
    w = BinaryWeights.make(*vec)
    got = alpha_recurrence(w.kinds, *rate_and_root(w.kinds, 30), n_max)
    assert got == ref_binary_alpha(w, n_max, 30)


@pytest.mark.parametrize("v1,v2", [(0, 0), (1, 0), (2, 3)])
def test_height_recurrence_equals_reference(v1, v2):
    kinds = _height_kinds(Q(v1), Q(v2))
    got = alpha_recurrence(kinds, *rate_and_root(kinds, 20), 8)
    assert got == ref_height_alpha(v1, v2, 8, 20)


@pytest.mark.parametrize("v1,v2,n_max,order", [(0, 0, 8, 30), (1, 2, 6, 20)])
def test_ternary_recurrence_equals_reference(v1, v2, n_max, order):
    kinds = _ternary_kinds(Q(v1), Q(v2))
    got = alpha_recurrence(kinds, *rate_and_root(kinds, order), n_max)
    assert got == ref_ternary_alpha(v1, v2, n_max, order)


def characteristic_root(kinds, T):
    """X with T X = z sum_k w_k T^|O_k| sum_(o in O_k) X^(o+1), offsets in {-1, 0, 1}."""
    order = T.order
    z = Series.z(order)
    coeffs = [Series.zero(order) for _ in range(3)]
    for w, offs in kinds:
        for o in offs:
            coeffs[o + 1] = coeffs[o + 1] + z * T ** len(offs) * w
    coeffs[1] = coeffs[1] - T
    return newton_solve(SeriesPoly.make(coeffs), 0)


single_branch_kind = st.tuples(
    st.sampled_from([Q(1, 3), Q(1, 2), Q(1), Q(2)]),
    st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(single_branch_kind, min_size=0, max_size=2),
       single_branch_kind.map(lambda kind: (kind[0], (-1,) + kind[1][1:])))
def test_level_residual_vanishes_for_random_kinds(kinds, deep):
    # the deepest offset is -1, so the dropped tail n > n_max enters the
    # level-j residual through level j - 1, times z: below (j-1)(n_max+1)+1
    kinds = kinds + [deep]
    n_max, j = 5, 3
    bound = (j - 1) * (n_max + 1) + 1
    T = tree_root(kinds, bound)
    X = characteristic_root(kinds, T)
    alphas = alpha_recurrence(kinds, X, T, n_max)
    assert alphas[0] == Series.one(bound)
    assert level_residual(kinds, alphas, X, T, j, bound).is_zero()


def test_level_residual_needs_non_negative_levels():
    kinds = _ternary_kinds(Q(1), Q(0))
    X, T = rate_and_root(kinds, 10)
    alphas = alpha_recurrence(kinds, X, T, 3)
    with pytest.raises(ValueError):
        level_residual(kinds, alphas, X, T, 0, 10)


# ---------------------------------------------------------------------------
# The closed-form prover
# ---------------------------------------------------------------------------

X_POLY = MultiPoly.var(("X",), "X")


def reference_first_unproved(kinds, parts) -> int | None:
    """The prover as first written: each recomputed alpha_n, a rational function,
    cross-multiplied with its claim."""
    first, pair, nums = parts
    dens = _x_powers(pair, len(nums) - 1, first)
    return 1 if nums[0] != first else next(
        (n for n, got in enumerate(recomputed_alphas(kinds, first, pair, nums), 2)
         if not got.equals(RationalFunction(nums[n - 1], dens[n - 1]))), None)


def dary_claims(kind, d):
    fam = DaryFamily(kind, d)
    return fam.kinds, D._one_param_parts(fam, 8)


def binary_claims(vec, mode):
    w = BinaryWeights.make(*vec)
    return w.kinds, B._CLOSED_PARTS[mode](w, X_POLY, None, 8)


# every family whose kinds have one arity, with its closed claims up to n = 8
CLAIMS = {
    **{f"{kind} d={d}": dary_claims(kind, d) for kind in ("odd", "even") for d in (1, 2)},
    "matched (0,0,1,0,0)": binary_claims((0, 0, 1, 0, 0), "matched_closed"),
    "matched (0,0,0,1,1)": binary_claims((0, 0, 0, 1, 1), "matched_closed"),
    "w3 (0,0,0,0,1)": binary_claims((0, 0, 0, 0, 1), "w3_closed"),
    "height (0,0)": (_height_kinds(Q(0), Q(0)), B._height_parts(Q(0), X_POLY, None, 8)),
}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_closed_claims_are_proved(name):
    kinds, parts = CLAIMS[name]
    assert campaign._first_unproved(kinds, parts) is None
    assert reference_first_unproved(kinds, parts) is None


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CLAIMS)), st.integers(1, 8),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda q: q != 1))
def test_a_scaled_numerator_is_reported_at_its_index(name, n, scale):
    # the claims below n are right, so alpha_n recomputed from them is, and
    # only the claim at n disagrees with it
    kinds, (first, pair, nums) = CLAIMS[name]
    wrong = nums[:n - 1] + [nums[n - 1] * scale] + nums[n:]
    assert campaign._first_unproved(kinds, (first, pair, wrong)) == n
    assert reference_first_unproved(kinds, (first, pair, wrong)) == n


def test_the_prover_builds_no_quotient(monkeypatch):
    # the claims are compared on cleared numerators: no rational function is made
    def refuse(*args):
        raise AssertionError("a RationalFunction was built")

    monkeypatch.setattr(RationalFunction, "__init__", refuse)
    for kinds, (first, pair, nums) in CLAIMS.values():
        assert campaign._first_unproved(kinds, (first, pair, nums)) is None
        assert campaign._first_unproved(kinds, (first, pair, nums[:2] + [nums[2] * 2])) == 3


@pytest.mark.parametrize("check_id,products", [
    ("dary/alpha-agreement", 786), ("binary/alpha-closed-forms", 469),
    ("dary/one-param-identity", 151), ("binary/one-param-family", 231)])
def test_prover_checks_make_a_fixed_number_of_products(check_id, products):
    result = campaign.run_check(check_id)
    assert (result.status, dict(result.counts)["multipoly.mul"]) == ("pass", products)


def test_matched_form_at_unmatched_weights_fails_at_two():
    # the matched form reads w1 and w2 only; the recurrence of w3 = 2 != w2 refutes it
    parts = B._matched_parts(BinaryWeights.make(0, 0, 0, 1, 1), X_POLY, None, 12)
    assert campaign._first_unproved(BinaryWeights.make(0, 0, 0, 1, 2).kinds, parts) == 2


def test_prover_refuses_mixed_arities():
    _, parts = CLAIMS["matched (0,0,1,0,0)"]
    with pytest.raises(ValueError, match="one arity"):
        recomputed_alphas(BinaryWeights.make(1, 0, 1, 0, 0).kinds, *parts)


def scaled_at_three(parts_of, series_only=False):
    """``parts_of`` with num_3 doubled: everywhere, or only where X is a series."""
    def wrong(*args):
        first, pair, nums = parts_of(*args)
        if series_only and isinstance(args[-3], MultiPoly):
            return first, pair, nums
        return first, pair, nums[:2] + [nums[2] * 2] + nums[3:]
    return wrong


@pytest.mark.parametrize("series_only,binary,height", [
    (False, "weights (0, 0, 1, 0, 0), index 3 (matched_closed)", "couplings (0, 0), index 3"),
    (True, "weights (1, 0, 1, 0, 0), index 3 (matched_closed)", "couplings (1, 0), index 3"),
])
def test_a_wrong_claim_fails_the_campaign_checks(monkeypatch, series_only, binary, height):
    # the proof at v1 = v2 = 0, and the series comparison elsewhere
    monkeypatch.setitem(B._CLOSED_PARTS, "matched_closed",
                        scaled_at_three(B._CLOSED_PARTS["matched_closed"], series_only))
    monkeypatch.setattr(B, "_height_parts", scaled_at_three(B._height_parts, series_only))
    results = [campaign.run_check(check_id)
               for check_id in ("binary/alpha-closed-forms", "height/plane-trees")]
    assert [(r.status, r.detail) for r in results] == [("fail", binary), ("fail", height)]


def test_a_wrong_dary_claim_fails_its_check(monkeypatch):
    monkeypatch.setattr(D, "_one_param_parts", scaled_at_three(D._one_param_parts))
    result = campaign.run_check("dary/alpha-agreement")
    assert (result.status, result.detail) == ("fail", "odd d=1 index 3")
