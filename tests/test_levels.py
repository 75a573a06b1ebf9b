import functools
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
                             level_residual, level_rows, recomputed_alphas, t_relation)
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
    """The prover as first written, for kinds of one arity: each recomputed alpha_n, a
    rational function, cross-multiplied with its claim."""
    first, pair, nums = parts
    dens = _x_powers(pair, len(nums) - 1, first)
    return 1 if nums[0] != first else next(
        (n for n, got in enumerate(recomputed_alphas(kinds, first, pair, nums), 2)
         if not got.equals(RationalFunction(nums[n - 1], dens[n - 1]))), None)


def reference_first_wrong_alpha(kinds, parts, n_max: int, base) -> int | None:
    """The series comparison the mixed-arity claims were checked by before their proof:
    num_n must equal first pair^(n-1) times the recurrence's alpha_n in series, at
    ``base()`` = (factor, T)."""
    small, T = base()
    X = small.elementary[0]
    first, pair, nums = parts(X, T, n_max)
    rows = zip(alpha_recurrence(kinds, X, T, n_max), nums, _x_powers(pair, n_max - 1, first))
    return next((n for n, (a, num, den) in enumerate(rows, 1) if not num.matches(a * den)), None)


def series_parts(parts_of, scale_at=None, scale=1):
    """``parts_of(X, n_max)`` in the old (X, T, n_max) form, pair as a series in X and T,
    with num_n times ``scale`` at n = ``scale_at``."""
    def parts(X, T, n_max):
        first, pair, nums = parts_of(X, n_max)
        if isinstance(pair, list):  # the coefficients of pair T
            pair = pair[0] / T + pair[1]
        return first, pair, scaled(nums, scale_at, scale)
    return parts


def scaled(nums, n, scale):
    """nums with num_n times ``scale``; unchanged for n None."""
    return nums if n is None else nums[:n - 1] + [nums[n - 1] * scale] + nums[n:]


def dary_claims(kind, d):
    fam = DaryFamily(kind, d)
    return fam.kinds, lambda X, n_max: D._one_param_parts(fam, n_max)


def binary_claims(vec, mode):
    w = BinaryWeights.make(*vec)
    return w.kinds, functools.partial(B._CLOSED_PARTS[mode], w)


def height_claims(v1, v2):
    return _height_kinds(Q(v1), Q(v2)), functools.partial(B._height_parts, Q(v1))


# every family with closed claims, as (kinds, parts_of(X, n_max)), checked up to n = 8
CLAIMS = {
    **{f"{kind} d={d}": dary_claims(kind, d) for kind in ("odd", "even") for d in (1, 2)},
    "matched (0,0,1,0,0)": binary_claims((0, 0, 1, 0, 0), "matched_closed"),
    "matched (0,0,0,1,1)": binary_claims((0, 0, 0, 1, 1), "matched_closed"),
    "matched (1,0,1,0,0)": binary_claims((1, 0, 1, 0, 0), "matched_closed"),
    "matched (2,1,1,1,1)": binary_claims((2, 1, 1, 1, 1), "matched_closed"),
    "matched (0,0,1,1,1)": binary_claims((0, 0, 1, 1, 1), "matched_closed"),
    "w3 (0,0,0,0,1)": binary_claims((0, 0, 0, 0, 1), "w3_closed"),
    "w3 (1,0,0,0,1)": binary_claims((1, 0, 0, 0, 1), "w3_closed"),
    "w3 (2,1,0,0,2)": binary_claims((2, 1, 0, 0, 2), "w3_closed"),
    "height (0,0)": height_claims(0, 0),
    "height (1,0)": height_claims(1, 0),
    "height (2,3)": height_claims(2, 3),
}


def one_arity(kinds) -> bool:
    return len({len(offs) for _, offs in kinds}) == 1


def reference(name, scale_at=None, scale=1) -> int | None:
    """The claims' first failure by the rational-function prover on one arity, else in series."""
    kinds, parts_of = CLAIMS[name]
    if one_arity(kinds):
        first, pair, nums = parts_of(X_POLY, 8)
        return reference_first_unproved(kinds, (first, pair, scaled(nums, scale_at, scale)))
    return reference_first_wrong_alpha(kinds, series_parts(parts_of, scale_at, scale), 8,
                                       lambda: family_base(kinds, 30))


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_closed_claims_are_proved(name):
    kinds, parts_of = CLAIMS[name]
    assert campaign._first_unproved(kinds, parts_of(X_POLY, 8)) is None
    assert reference(name) is None


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CLAIMS)), st.integers(1, 8),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda q: q != 1))
def test_a_scaled_numerator_is_reported_at_its_index(name, n, scale):
    # the claims below n are right, so alpha_n recomputed from them is, and
    # only the claim at n disagrees with it
    kinds, parts_of = CLAIMS[name]
    first, pair, nums = parts_of(X_POLY, 8)
    assert campaign._first_unproved(kinds, (first, pair, scaled(nums, n, scale))) == n
    assert reference(name, n, scale) == n


weight = st.sampled_from([Q(1, 2), Q(1), Q(2), Q(3, 5)])


@settings(max_examples=20, deadline=None)
@given(weight, weight, st.sampled_from([Q(0), Q(1), Q(2, 3)]), weight,
       st.sampled_from(["matched_closed", "w3_closed"]), st.integers(2, 6))
def test_mixed_arity_claims_over_random_weights(v1, v2, w1, w23, mode, n):
    # unary kinds with both couplings nonzero: T is quadratic over Q(X)
    w = (BinaryWeights.make(v1, v2, w1, w23, w23) if mode == "matched_closed"
         else BinaryWeights.make(v1, v2, 0, 0, w23))
    first, pair, nums = B._CLOSED_PARTS[mode](w, X_POLY, 6)
    assert isinstance(pair, list) and not one_arity(w.kinds)
    assert campaign._first_unproved(w.kinds, (first, pair, nums)) is None
    assert campaign._first_unproved(w.kinds, (first, pair, scaled(nums, n, Q(11, 10)))) == n


def test_the_prover_builds_no_quotient(monkeypatch):
    # the claims are compared on cleared numerators: no rational function is made
    def refuse(*args):
        raise AssertionError("a RationalFunction was built")

    monkeypatch.setattr(RationalFunction, "__init__", refuse)
    for kinds, parts_of in CLAIMS.values():
        first, pair, nums = parts_of(X_POLY, 8)
        assert campaign._first_unproved(kinds, (first, pair, nums)) is None
        assert campaign._first_unproved(kinds, (first, pair, scaled(nums, 3, 2))) == 3


# the d = 2 families have several small branches, none of them a series
@pytest.mark.parametrize("name", sorted(name for name in CLAIMS if not name.endswith("d=2")))
def test_the_relation_vanishes_at_the_series_root(name):
    # an independent reading of R: evaluated at the series X and T of ``family_base``
    kinds, _ = CLAIMS[name]
    X, T = rate_and_root(kinds, 20)
    total = Series.zero(20)
    for t, c in enumerate(t_relation(kinds)):
        total = total + c.eval_series({"X": X}) * T**t
    assert total.is_zero()


def test_the_relation_is_read_off_the_kinds(monkeypatch):
    # R has T-degree (largest arity) - (smallest arity) + 1, a nonzero constant term, and
    # is built without a polynomial product
    calls = []
    original = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda x, y: calls.append(1) or original(x, y))
    for kinds, _ in CLAIMS.values():
        arities = {len(offs) for _, offs in kinds}
        relation = t_relation(kinds)
        assert len(relation) == max(arities) - min(arities) + 2
        assert not relation[0].is_zero() and not relation[-1].is_zero()
    assert calls == []


@pytest.mark.parametrize("check_id,products", [
    ("dary/alpha-agreement", 786), ("binary/alpha-closed-forms", 1151),
    ("dary/one-param-identity", 76), ("binary/one-param-family", 210)])
def test_prover_checks_make_a_fixed_number_of_products(check_id, products):
    result = campaign.run_check(check_id)
    assert (result.status, dict(result.counts)["multipoly.mul"]) == ("pass", products)


def test_matched_form_at_unmatched_weights_fails_at_two():
    # the matched form reads w1 and w2 only; the recurrence of w3 = 2 != w2 refutes it
    parts = B._matched_parts(BinaryWeights.make(0, 0, 0, 1, 1), X_POLY, 12)
    assert campaign._first_unproved(BinaryWeights.make(0, 0, 0, 1, 2).kinds, parts) == 2


def test_prover_refuses_mixed_arities():
    _, parts_of = CLAIMS["matched (0,0,1,0,0)"]
    with pytest.raises(ValueError, match="one arity"):
        recomputed_alphas(BinaryWeights.make(1, 0, 1, 0, 0).kinds, *parts_of(X_POLY, 8))


def scaled_at_three(parts_of, mixed_only=False):
    """``parts_of`` with num_3 doubled: everywhere, or only where pair reads 1/T."""
    def wrong(*args):
        first, pair, nums = parts_of(*args)
        if mixed_only and not isinstance(pair, list):
            return first, pair, nums
        return first, pair, scaled(nums, 3, 2)
    return wrong


@pytest.mark.parametrize("mixed_only,binary,height", [
    (False, "weights (0, 0, 1, 0, 0), index 3 (matched_closed)", "couplings (0, 0), index 3"),
    (True, "weights (1, 0, 1, 0, 0), index 3 (matched_closed)", "couplings (1, 0), index 3"),
])
def test_a_wrong_claim_fails_the_campaign_checks(monkeypatch, mixed_only, binary, height):
    # the proof on one arity, and where v1 != 0 makes T quadratic over Q(X)
    monkeypatch.setitem(B._CLOSED_PARTS, "matched_closed",
                        scaled_at_three(B._CLOSED_PARTS["matched_closed"], mixed_only))
    monkeypatch.setattr(B, "_height_parts", scaled_at_three(B._height_parts, mixed_only))
    results = [campaign.run_check(check_id)
               for check_id in ("binary/alpha-closed-forms", "height/plane-trees")]
    assert [(r.status, r.detail) for r in results] == [("fail", binary), ("fail", height)]


def test_a_wrong_dary_claim_fails_its_check(monkeypatch):
    monkeypatch.setattr(D, "_one_param_parts", scaled_at_three(D._one_param_parts))
    result = campaign.run_check("dary/alpha-agreement")
    assert (result.status, result.detail) == ("fail", "odd d=1 index 3")
