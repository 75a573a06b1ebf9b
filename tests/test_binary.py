import collections
import itertools
from fractions import Fraction as Q
from functools import reduce
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees import binary, campaign
from embtrees.binary import (
    BinaryWeights,
    adapt_lambda,
    binary_Tj_closed,
    binary_Tj_recurrence,
    brute_force_embedded_binary,
    conjecture_check,
    conjecture_polynomials,
    height_plane_trees,
    plane_tree_height_counts,
    closed_family_rows,
    _height_kinds,
    _ternary_kinds,
)
from embtrees.dary import DaryFamily, _one_param_parts
from embtrees.errors import (
    DegenerateCharacteristic,
    DegenerateWeights,
    EmbtreesError,
    InsufficientPrecision,
    SizeTooLarge,
)
from embtrees.kernel import family_base, tree_root
from embtrees.levels import (_NEG_INF, alpha_recurrence, label_spectra, level_identity,
                             level_residual, t_relation)
from embtrees.multipoly import MultiPoly
from embtrees.series import Series

W_BINARY = BinaryWeights.make(0, 0, 1, 0, 0)
W_PLANAR = BinaryWeights.make(0, 0, 0, 1, 1)
X_POLY = MultiPoly.var(("X",), "X")
W_SINGLE = BinaryWeights.make(0, 0, 0, 0, 1)
W_MIXED = BinaryWeights.make(1, 0, 1, 0, 0)
ORACLE_VECTORS = (W_BINARY, W_PLANAR, W_SINGLE, W_MIXED)


def enumerate_embedded_binary(w, n):
    """Explicit tree-by-tree enumeration: (weight, max internal, min occupied).

    Exponential; guarded at size 7.  The tree-shape oracle of
    ``label_spectra`` is checked against it on small sizes.
    """
    if n > 7:
        raise SizeTooLarge("explicit enumeration is capped at size 7")
    kinds = w.kinds

    def gen(size: int):
        if size == 0:
            yield (Q(1), _NEG_INF, 0)
            return
        for weight, offsets in kinds:
            for sizes in itertools.product(range(size), repeat=len(offsets)):
                if sum(sizes) != size - 1:
                    continue
                for kids in itertools.product(*[list(gen(s)) for s in sizes]):
                    yield (reduce(mul, [wt for wt, _, _ in kids], weight),
                           max([0] + [mx + o for (_, mx, _), o in zip(kids, offsets)]),
                           min([0] + [mn + o for (_, _, mn), o in zip(kids, offsets)]))

    return list(gen(n))


def ints(series):
    return [int(c) for c in series.coeffs]


class TestRootSeries:
    def test_catalan(self):
        assert ints(tree_root(W_BINARY.kinds, 6)) == [1, 1, 2, 5, 14, 42]

    def test_schroeder(self):
        assert ints(tree_root(BinaryWeights.make(0, 1, 1, 0, 0).kinds, 6)) == [1, 2, 6, 22, 90, 394]

    def test_triple_weight(self):
        assert ints(tree_root(W_PLANAR.kinds, 5)) == [1, 3, 18, 135, 1134]

    def test_linear_only_falls_back(self):
        t = tree_root(BinaryWeights.make(1, 1, 0, 0, 0).kinds, 5)
        assert ints(t) == [1, 3, 9, 27, 81]

    @pytest.mark.parametrize("vec", [(0, 0, 1, 0, 0), (1, 0, 1, 0, 0), (2, 1, 1, 1, 1)])
    def test_tree_equation_residual(self, vec):
        w = BinaryWeights.make(*vec)
        T = tree_root(w.kinds, 25)
        z = Series.z(25)
        one = Series.one(25)
        assert (T - one - z * T * w.linear - z * T * T * w.quadratic).is_zero()


class TestDecayRate:
    @pytest.mark.parametrize("vec", [(0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0)])
    def test_characteristic_residual(self, vec):
        w = BinaryWeights.make(*vec)
        small, T = family_base(w.kinds, 40)
        X = small.elementary[0]
        z, one = Series.z(40), Series.one(40)
        r = T * (w.w1 + w.w3) + w.v1
        s = T * (2 * (w.w2 + w.w3)) + w.v2
        assert (X - z * (r * (one + X * X) + s * X)).is_zero()

    def test_non_negative_and_zero_constant(self, ):
        X = family_base(W_PLANAR.kinds, 20)[0].elementary[0]
        assert X[0] == 0
        assert all(c >= 0 for c in X.coeffs)

    def test_degenerate(self):
        with pytest.raises(DegenerateCharacteristic):
            family_base(BinaryWeights.make(0, 1, 0, 1, 0).kinds, 8)


class TestLevelRecurrence:
    @pytest.mark.parametrize("w", ORACLE_VECTORS, ids=str)
    @pytest.mark.parametrize("boundary", [1, 0])
    def test_matches_enumeration(self, w, boundary):
        rows = binary_Tj_recurrence(w, boundary, 4, 9)
        for j in range(-1, 5):
            assert list(rows[j].coeffs) == brute_force_embedded_binary(w, j, 8, boundary)

    def test_boundary_row_pinned(self):
        rows = binary_Tj_recurrence(W_PLANAR, 0, 0, 6)
        assert rows[-1].is_zero()
        rows1 = binary_Tj_recurrence(W_BINARY, 1, 0, 6)
        assert rows1[-1] == Series.one(6)

    def test_rows_stabilize_to_limit(self):
        rows = binary_Tj_recurrence(W_BINARY, 1, 12, 12)
        T = tree_root(W_BINARY.kinds, 12)
        for n in range(12):
            for j in range(n, 13):
                assert rows[j][n] == T[n]

    def test_unconstrained_count_at_large_level(self):
        rows = binary_Tj_recurrence(W_BINARY, 1, 5, 5)
        assert rows[5][4] == 14  # all binary trees of size 4


class TestOracle:
    def test_empty_tree(self):
        assert brute_force_embedded_binary(W_BINARY, 3, 0) == [Q(1)]

    def test_spectra_agree_with_explicit_enumeration(self):
        for w in (W_MIXED, W_PLANAR):
            spectra = label_spectra(w.kinds, 5, "max")
            for n in (3, 5):
                agg = collections.defaultdict(lambda: Q(0))
                for wt, mx, _ in enumerate_embedded_binary(w, n):
                    agg[mx] += wt
                assert dict(agg) == spectra[n]

    def test_min_spectra_agree_with_explicit_enumeration(self):
        spectra = label_spectra(W_PLANAR.kinds, 5, "min")
        for n in (2, 4):
            agg = collections.defaultdict(lambda: Q(0))
            for wt, _, mn in enumerate_embedded_binary(W_PLANAR, n):
                agg[mn] += wt
            assert dict(agg) == spectra[n]


def closed_and_recurrence(kinds, parts, n_max, order):
    """alpha_1..alpha_n_max from the closed ``parts(X, n_max)`` at the series root, and the
    recurrence's alphas at the same root."""
    small, T = family_base(kinds, order)
    X = small.elementary[0]
    first, pair, nums = parts(X, n_max)
    pair = pair[0] / T + pair[1] if isinstance(pair, list) else pair  # from pair T's coefficients
    closed = [num / (first * pair**n) for n, num in enumerate(nums)]
    return closed, alpha_recurrence(kinds, X, T, n_max)


class TestAlphaTables:
    # the claims themselves are proved by tests/test_levels.py::CLAIMS and the campaign;
    # these compare them with the recurrence in series, independently of that prover
    @pytest.mark.parametrize(
        "vec",
        [(0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0), (0, 0, 1, 1, 1), (2, 1, 1, 1, 1)],
    )
    def test_matched_closed_equals_recurrence(self, vec):
        w = BinaryWeights.make(*vec)
        clo, rec = closed_and_recurrence(w.kinds, lambda X, n: binary._matched_parts(w, X, n),
                                         12, 30)
        for n in range(1, 13):
            assert rec[n - 1].matches(clo[n - 1])

    @pytest.mark.parametrize("vec", [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (2, 1, 0, 0, 2)])
    def test_single_kind_closed_equals_recurrence(self, vec):
        w = BinaryWeights.make(*vec)
        clo, rec = closed_and_recurrence(w.kinds, lambda X, n: binary._w3_parts(w, X, n), 12, 30)
        for n in range(1, 13):
            assert rec[n - 1].matches(clo[n - 1])

    def test_first_entry_is_normalized(self):
        first, _, nums = binary._matched_parts(W_BINARY, X_POLY, 3)
        assert nums[0] == first  # alpha_1 = 1

    def test_degenerate_weights_rejected(self):
        with pytest.raises(DegenerateWeights, match="all-zero binary weights"):
            binary._matched_parts(BinaryWeights.make(1, 1, 0, 0, 0), X_POLY, 3)
        with pytest.raises(DegenerateWeights, match="w1 = w2 = 0"):
            binary._w3_parts(W_BINARY, X_POLY, 3)
        with pytest.raises(DegenerateWeights, match="w3 > 0"):
            binary._w3_parts(BinaryWeights.make(1, 1, 0, 0, 0), X_POLY, 3)
        with pytest.raises(DegenerateWeights, match="w2 = w3"):
            binary._matched_parts(BinaryWeights.make(0, 0, 1, 1, 0), X_POLY, 3)


class TestClosedFamily:
    def test_binary_level_ratio_exponents(self):
        # at the adapted parameter the family collapses to the ratio with
        # exponent pattern (j+2, j+7) over (j+4, j+5)
        X = family_base(W_BINARY.kinds, 46)[0].elementary[0]
        T = tree_root(W_BINARY.kinds, 40)
        lam = X**3
        one = Series.one(40)
        xp = [one]
        for _ in range(14):
            xp.append(xp[-1] * X.truncate(40))
        for j in range(-1, 7):
            got = binary_Tj_closed(W_BINARY, lam, j, 34)
            ref = T * (one - xp[j + 2]) * (one - xp[j + 7]) / ((one - xp[j + 4]) * (one - xp[j + 5]))
            assert got.matches(ref)

    def test_planar_level_ratio_exponents(self):
        X = family_base(W_PLANAR.kinds, 46)[0].elementary[0]
        T = tree_root(W_PLANAR.kinds, 40)
        lam = X
        one = Series.one(40)
        xp = [one]
        for _ in range(12):
            xp.append(xp[-1] * X.truncate(40))
        for j in range(-1, 7):
            got = binary_Tj_closed(W_PLANAR, lam, j, 34)
            ref = T * (one - xp[j + 1]) * (one - xp[j + 4]) / ((one - xp[j + 2]) * (one - xp[j + 3]))
            assert got.matches(ref)

    def test_zero_parameter_gives_limit(self):
        assert binary_Tj_closed(W_BINARY, Series.zero(1), 3, 12) == tree_root(W_BINARY.kinds, 12)

    def test_closed_equals_recurrence_rows(self):
        lam = adapt_lambda(W_MIXED, 1, 20)
        rows = binary_Tj_recurrence(W_MIXED, 1, 3, 14)
        for j in (-1, 0, 2, 3):
            assert binary_Tj_closed(W_MIXED, lam, j, 14).matches(rows[j])

    @pytest.mark.parametrize(
        "vec", [(0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0), (0, 0, 1, 1, 1)]
    )
    def test_level_recurrence_residual_all_parameters(self, vec):
        # one identity in Q(X, lam, Y)[T], Y = X^j: every level and every parameter
        w = BinaryWeights.make(*vec)
        assert level_identity(w.kinds, closed_family_rows(w))

    @pytest.mark.parametrize("vec", [(0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0),
                                     (2, 1, 1, 1, 1), (1, 1, 1, 0, 0), (0, 1, 2, 1, 1)])
    def test_level_identity_rejects_a_wrong_claim(self, vec, monkeypatch):
        w = BinaryWeights.make(*vec)
        true_factor = binary._closed_factor
        monkeypatch.setattr(binary, "_closed_factor", lambda *a: true_factor(*a) * Q(11, 10))
        assert not level_identity(w.kinds, closed_family_rows(w))

    @settings(max_examples=30, deadline=None)
    @given(*[st.sampled_from([Q(0), Q(1, 2), Q(1), Q(2), Q(3, 5)])] * 4)
    def test_level_identity_over_random_matched_weights(self, v1, v2, w1, w23):
        if w1 == w23 == 0:
            w1 = Q(1)  # the closed family excludes the all-zero binary weights
        w = BinaryWeights.make(v1, v2, w1, w23, w23)
        assert level_identity(w.kinds, closed_family_rows(w))

    @settings(max_examples=60, deadline=None)
    @given(*[st.sampled_from([Q(0), Q(1, 2), Q(1), Q(2), Q(3, 5)])] * 4, st.sampled_from([0, 1]))
    def test_closed_equals_recurrence_over_random_weights(self, v1, v2, w1, w23, b):
        w = BinaryWeights.make(v1, v2, w1, w23, w23)
        if w1 == w23 == 0:
            # degenerate weights: refused, never answered with a series
            with pytest.raises(EmbtreesError):
                adapt_lambda(w, b, 16)
            with pytest.raises(EmbtreesError):
                binary_Tj_closed(w, Series.z(16), 0, 10)
            return
        lam = adapt_lambda(w, b, 16)
        rows = binary_Tj_recurrence(w, b, 4, 10)
        assert [binary_Tj_closed(w, lam, j, 10) for j in range(-1, 5)] == [
            rows[j] for j in range(-1, 5)]

    def test_short_parameter_is_refused(self, monkeypatch, capsys):
        lam = adapt_lambda(W_BINARY, 1, 16)
        with pytest.raises(InsufficientPrecision):
            binary_Tj_closed(W_BINARY, lam.truncate(11), 0, 10)
        # the CLI reports it as one error line with the input-error code
        from embtrees import cli

        monkeypatch.setattr(cli.B, "adapt_lambda", lambda w, b, order: lam.truncate(11))
        argv = ["trees", "--w1", "1", "--level", "0", "--method", "closed", "--order", "10"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "embtrees trees: error: parameter series carries too little precision\n"


class TestAdaptation:
    def test_binary_parameter_is_cubed_rate(self):
        lam = adapt_lambda(W_BINARY, 1, 30)
        assert lam.matches(family_base(W_BINARY.kinds, 30)[0].elementary[0] ** 3)

    def test_planar_parameter_is_rate(self):
        lam = adapt_lambda(W_PLANAR, 0, 30)
        assert lam.matches(family_base(W_PLANAR.kinds, 30)[0].elementary[0])

    def test_boundary_constant_term(self):
        for w, b in ((W_BINARY, 1), (W_PLANAR, 0)):
            lam = adapt_lambda(w, b, 16)
            row = binary_Tj_closed(w, Series(lam.coeffs, 22), -1, 14)
            assert row[0] == b


class TestConjecturedForm:
    def test_initial_polynomials(self):
        p = conjecture_polynomials(4)
        assert p[0] == {0: Q(1)}
        assert p[1] == {0: Q(1)}
        assert p[2] == {4: Q(1), 3: Q(2), 1: Q(2), 0: Q(1)}
        # one application of the even rule
        assert p[3] == {4: Q(1), 3: Q(2), 2: Q(-2), 1: Q(2), 0: Q(1)}

    def test_agreement_reported_consistent(self):
        report = conjecture_check(10, 40)
        assert report.status == "conjecture-consistent"
        assert all(ok for _, ok in report.agreements)
        assert report.status != "pass"  # agreement is never a proof


class TestHeightFamily:
    def test_plane_trees_level_zero_is_one(self):
        assert height_plane_trees(0, 8) == Series.one(8)

    def test_plane_trees_level_one_counts_stars(self):
        assert ints(height_plane_trees(1, 8)) == [1] * 8

    @pytest.mark.parametrize("j", [2, 3, 5])
    def test_plane_trees_match_enumeration(self, j):
        counts = plane_tree_height_counts(8)
        gf = height_plane_trees(j, 9)
        for n in range(9):
            assert gf[n] == sum(c for h, c in counts[n].items() if h <= j)

    def test_total_is_catalan(self):
        counts = plane_tree_height_counts(8)
        assert [sum(c[n].values() if False else counts[n].values()) for n in range(9)][:6] == [
            1, 1, 2, 5, 14, 42,
        ]

    def test_decay_rate_solves_its_equation(self):
        small, T = family_base(_height_kinds(Q(1), Q(2)), 20)
        X = small.elementary[0]
        z = Series.z(20)
        one = Series.one(20)
        assert (X * (one - z * (T + 2)) - z * (T + 1)).is_zero()

    @pytest.mark.parametrize("pair", [(0, 0), (1, 0), (2, 3)])
    def test_alpha_closed_matches_recurrence(self, pair):
        v1, v2 = map(Q, pair)
        clo, rec = closed_and_recurrence(_height_kinds(v1, v2),
                                         lambda X, n: binary._height_parts(v1, X, n), 10, 24)
        for n in range(1, 11):
            assert clo[n - 1].matches(rec[n - 1])

    @pytest.mark.parametrize("pair", [(0, 0), (1, 0), (2, 3)])
    def test_alpha_closed_is_proved_to_ten(self, pair):
        v1, v2 = map(Q, pair)
        parts = binary._height_parts(v1, X_POLY, 10)
        assert campaign._first_unproved(_height_kinds(v1, v2), parts) is None


class TestTernaryFamily:
    def test_root_and_rate(self):
        assert ints(tree_root(_ternary_kinds(Q(0), Q(0)), 5)) == [1, 1, 3, 12, 55]
        small, T = family_base(_ternary_kinds(Q(1), Q(1)), 20)
        X = small.elementary[0]
        z = Series.z(20)
        one = Series.one(20)
        t2 = T * T
        assert (z * (t2 + 1) * (one + X * X) - (one - z * (t2 + 1)) * X).is_zero()

    def test_reduces_to_single_branch_at_zero_couplings(self):
        kinds = _ternary_kinds(Q(0), Q(0))
        small, T = family_base(kinds, 30)
        table = alpha_recurrence(kinds, small.elementary[0], T, 8)
        first, pair, nums = _one_param_parts(DaryFamily("odd", 1), 8)
        branch = {"X": family_base(DaryFamily("odd", 1).kinds, 30)[0].elementary[0]}
        first, pair = first.eval_series(branch), pair.eval_series(branch)
        for n in range(1, 9):
            closed = nums[n - 1].eval_series(branch) / (first * pair ** (n - 1))
            assert table[n - 1].matches(closed)

    def test_level_residual_with_couplings(self):
        kinds = _ternary_kinds(Q(1), Q(0))
        small, T = family_base(kinds, 24)
        X = small.elementary[0]
        alphas = alpha_recurrence(kinds, X, T, 8)
        assert level_residual(kinds, alphas, X, T, 2, 17).is_zero()


def displayed_relation(w):
    """The paper's t2 T^2 - t1 T - L, coefficients lowest power of T first."""
    t1, t2, ell = binary._t_relation(w, X_POLY)
    return [-ell, -t1, t2]


def ref_t_of_x_identity(w, order: int) -> bool:
    """T's relation checked in series, as first written: its power-series root
    (t1 + sqrt(t1^2 + 4 t2 L)) / (2 t2), at the series X, is T."""
    small, T = family_base(w.kinds, order)
    t1, t2, ell = binary._t_relation(w, small.elementary[0])
    radicand = t1 * t1 + t2 * ell * 4
    c0 = radicand[0]  # (w1 + w3 + v1)^2
    root = (radicand / c0).sqrt() * Q(isqrt(c0.numerator), isqrt(c0.denominator))
    return ((t1 + root) / (t2 * 2)).matches(T)


@pytest.mark.parametrize("vec", [(0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 1),
                                 (1, 0, 1, 0, 0), (2, 1, 1, 1, 1)])
def test_the_displayed_relation_has_the_series_root(vec):
    assert ref_t_of_x_identity(BinaryWeights.make(*vec), 30)


def proportional(a: list, b: list) -> bool:
    """True when polynomials in T (lowest power first) differ by a factor in Q(X) and a power
    of T: then, as T(0) = 1, they have the root T together."""
    a, b = (p[next(i for i, c in enumerate(p) if not c.is_zero()):] for p in (a, b))
    return len(a) == len(b) and all(x * b[0] == y * a[0] for x, y in zip(a[1:], b[1:]))


@pytest.mark.parametrize("vec", [(0, 0, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 0),
                                 (2, 1, 1, 1, 1)])
def test_t_of_x_relation_is_proportional_to_the_kinds(vec):
    w = BinaryWeights.make(*vec)
    assert proportional(displayed_relation(w), t_relation(w.kinds))


@settings(max_examples=30, deadline=None)
@given(*[st.sampled_from([Q(0), Q(1, 2), Q(1), Q(3, 5)])] * 5)
def test_t_of_x_relation_over_random_weights(v1, v2, w1, w2, w3):
    if w1 == w2 == w3 == 0:
        w1 = Q(1)  # T's relation needs a binary kind
    w = BinaryWeights.make(v1, v2, w1, w2, w3)
    assert proportional(displayed_relation(w), t_relation(w.kinds))


@pytest.mark.parametrize("vec", [(0, 0, 1, 0, 0), (1, 0, 1, 0, 0), (2, 1, 1, 1, 1)])
def test_a_perturbed_t1_is_not_proportional(vec):
    w = BinaryWeights.make(*vec)
    ell, t1, t2 = displayed_relation(w)
    perturbed = [ell, t1 - X_POLY, t2]
    assert not proportional(perturbed, t_relation(w.kinds))


@pytest.mark.parametrize("perturb,weights", [
    (lambda t1, X: t1 * Q(11, 10), (0, 0, 1, 0, 0)),
    (lambda t1, X: t1 + X * X * (X - 1), (0, 0, 1, 0, 0)),
])
def test_a_perturbed_t1_fails_the_campaign_check(monkeypatch, perturb, weights):
    true_relation = binary._t_relation

    def perturbed(w, X):
        t1, t2, ell = true_relation(w, X)
        return perturb(t1, X), t2, ell

    monkeypatch.setattr(binary, "_t_relation", perturbed)
    result = campaign.run_check("binary/t-of-x")
    assert (result.status, result.detail) == ("fail", f"weights {weights}")


def test_enumeration_guards():
    import pytest as _pytest
    from embtrees.errors import SizeTooLarge

    with _pytest.raises(SizeTooLarge):
        brute_force_embedded_binary(W_BINARY, 0, 11)
    with _pytest.raises(SizeTooLarge):
        enumerate_embedded_binary(W_BINARY, 8)
