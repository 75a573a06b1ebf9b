import functools
import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees import dary
from embtrees.binary import BinaryWeights, binary_Tj_recurrence
from embtrees.dary import (
    DaryFamily,
    _multi_indices,
    _splits,
    _terms_by_multiset,
    brute_force_dary,
    dary_alpha_general,
    dary_alpha_one_param_closed,
    dary_rational_parametrization,
    dary_Tj_recurrence,
    one_param_rows,
    one_param_solution,
    rho_series,
    verify_main_equation,
)
from embtrees.errors import InsufficientPrecision
from embtrees.kernel import family_base, fuss_catalan, hensel_factor_pair, tree_root
from embtrees.levels import _compositions, level_identity, recomputed_alphas, recomputed_sums
from embtrees.multipoly import MultiPoly, RationalFunction
from embtrees.series import Series
from embtrees.splitting import SAElement, SplitAlgebra

ODD1 = DaryFamily("odd", 1)
ODD2 = DaryFamily("odd", 2)
ODD3 = DaryFamily("odd", 3)
EVEN1 = DaryFamily("even", 1)
EVEN2 = DaryFamily("even", 2)
EVEN3 = DaryFamily("even", 3)


def one_param_recurrence(fam, n_max):
    """alpha_1 = 1, then alpha_2..alpha_n_max recomputed by the levels prover from the
    family's closed claims."""
    one = RationalFunction(MultiPoly.const(("X",), 1))
    return [one] + recomputed_alphas(fam.kinds, *dary._one_param_parts(fam, n_max))


def _uni(terms):
    return MultiPoly(("X",), {(k,): v for k, v in terms.items()})


def ref_one_param_recurrence(fam, n_max):
    """The graded recurrence with one numerator product per composition."""
    offsets = fam.offsets
    c_down = -min(offsets)
    one = _uni({0: Q(1)})
    d = fam.d
    if fam.kind == "odd":
        step, xpow, lead = d, 1, d + 1
        base_lo = one - _uni({1: 1})
    else:
        step, xpow, lead = 2 * d - 1, 2, 2 * d + 1
        base_lo = one - _uni({2: 1})
    first = one - _uni({step: 1})
    pair = base_lo * (one - _uni({lead: 1}))
    closed_num = [_uni({xpow * (g - 1): 1}) * (one - _uni({g * step: 1}))
                  for g in range(1, n_max + 1)]
    alphas = [RationalFunction(one)]
    for n in range(2, n_max + 1):
        l_cap = min(n, len(offsets))
        acc = MultiPoly.zero(("X",))
        for size in range(2, l_cap + 1):
            cofactor = first ** (l_cap - size) * pair**size
            for parts in _compositions(n, size):
                num = cofactor
                for g in parts:
                    num = num * closed_num[g - 1]
                mono_sum = MultiPoly.zero(("X",))
                for combo in itertools.combinations(offsets, size):
                    power = sum(o * g for o, g in zip(combo, parts)) + c_down * n
                    mono_sum = mono_sum + _uni({power: 1})
                term = num * mono_sum
                acc = acc + (term if size % 2 == 0 else -term)
        rhs = RationalFunction(acc, first**l_cap * pair**n * _uni({c_down * n: 1}))
        div_num = MultiPoly.zero(("X",))
        for o in offsets:
            div_num = div_num + _uni({(o + c_down) * n: 1}) - _uni({o + c_down * n: 1})
        alphas.append(rhs / RationalFunction(div_num, _uni({c_down * n: 1})))
    return alphas


def ref_alpha_general(fam, bound, seeds, order):
    """The expansion table as the grouped loop first built it, at full order.

    The divisor's clearing power lead = X^(c_down n) is folded into the
    monomials' exponents, (o + c_down) times each part; every monomial is
    built at the full order, and the inverse is taken to the algebra's
    order, with no precision trimmed anywhere.
    """
    c = fam.branch_count
    work = order + (-min(fam.offsets) + 1) * bound + 4
    small, T = family_base(fam.kinds, work)
    zT = Series.z(work) * T ** (fam.arity - 1)
    alg = SplitAlgebra(small)
    offsets, c_down = fam.offsets, -min(fam.offsets)
    entries = {}
    for g in range(c):
        entries[tuple(int(k == g) for k in range(c))] = alg.from_series(
            Series(seeds[g].coeffs, work))
    for index in _multi_indices(c, bound):
        if index in entries:
            continue
        groups = {}
        terms = _terms_by_multiset(
            offsets, min(sum(index), len(offsets)), lambda size: _splits(index, size))
        for key, combo, parts in terms:
            mono = alg.monomial(tuple(sum((o + c_down) * g[k] for o, g in zip(combo, parts))
                                      for k in range(c)))
            groups[key] = mono if key not in groups else groups[key] + mono
        rhs = alg.zero()
        for key, monos in groups.items():
            product = entries[key[0]]
            for p in key[1:]:
                product = product * entries[p]
            term = product * monos
            rhs = rhs + (term if len(key) % 2 == 0 else -term)
        lead = alg.monomial(tuple(c_down * k for k in index))
        u = alg.zero()
        for o in offsets:
            if o != -c_down:
                u = u + alg.monomial(tuple((o + c_down) * k for k in index))
        u = u - SAElement(alg, {e: s / zT for e, s in lead.coeffs.items()})
        entries[index] = rhs * alg.invert_one_plus(u)
    return entries


def ref_rho_series(table, j, order):
    """The level-j sum at the table's full precision, cut only at the end."""
    alg = table.algebra
    full = alg.zero()
    for index, alpha in table.entries.items():
        full = full + alpha * alg.monomial(tuple(j * k for k in index))
    return full.as_series(order)


def rho_levels(fam):
    """The levels verify_main_equation reads at its default levels."""
    return range(0, -min(fam.offsets) + 1 + max(fam.offsets) + 1)


def main_equation_seeds(fam, bound, order):
    s_val = order // (bound + 1) + 1
    return [Series.z(order + 4) ** s_val for _ in range(fam.branch_count)]


@functools.lru_cache(maxsize=None)
def table_of(fam, bound, order):
    """The table verify_main_equation checks, with its default seeds."""
    return dary_alpha_general(fam, bound, main_equation_seeds(fam, bound, order), order)


def coordinates_agree(x, y):
    """Equal coordinates wherever both hold a coefficient."""
    for e in set(x.coeffs) | set(y.coeffs):
        a = x.coeffs.get(e, Series.zero(x.stored_order))
        b = y.coeffs.get(e, Series.zero(y.stored_order))
        if not a.matches(b):
            return False
    return True


def char_poly(fam, order):
    """X^c - z T^(arity-1) sum_o X^(o+c), c the branch count, by powers of X."""
    c = fam.branch_count
    zf = Series.z(order) * tree_root(fam.kinds, order) ** (fam.arity - 1)
    f = [Series.zero(order) for _ in range(2 * c + 1)]
    f[c] = Series.one(order)
    for o in fam.offsets:
        f[o + c] = f[o + c] - zf
    return f, c


def test_family_descriptors():
    assert ODD1.offsets == (-1, 0, 1) and ODD1.arity == 3
    assert EVEN2.offsets == (-3, -1, 1, 3) and EVEN2.arity == 4
    assert EVEN2.branch_count == 3 and ODD2.branch_count == 2


def test_root_series_are_binomial_family():
    assert [int(c) for c in tree_root(ODD1.kinds, 5).coeffs] == [1, 1, 3, 12, 55]
    assert [int(c) for c in tree_root(EVEN1.kinds, 5).coeffs] == [1, 1, 2, 5, 14]
    assert tree_root(EVEN2.kinds, 4)[2] == fuss_catalan(2, 4) == 4


class TestLevelRows:
    def test_left_ternary_counts(self):
        rows = dary_Tj_recurrence(ODD1, 0, 8)
        assert [int(c) for c in rows[0].coeffs] == [1, 1, 2, 6, 22, 91, 408, 1938]

    @pytest.mark.parametrize("fam,n_max", [(ODD1, 7), (EVEN1, 7), (ODD2, 5), (EVEN2, 5)])
    def test_rows_match_enumeration(self, fam, n_max):
        rows = dary_Tj_recurrence(fam, 3, n_max + 1)
        for j in range(4):
            assert list(rows[j].coeffs) == brute_force_dary(fam, j, n_max)

    def test_boundary_rows_pinned(self):
        rows = dary_Tj_recurrence(EVEN2, 1, 5)
        for j in range(min(EVEN2.offsets), 0):
            assert rows[j] == Series.one(5)

    def test_even_arity_two_matches_binary_module(self):
        rows_e = dary_Tj_recurrence(EVEN1, 3, 9)
        rows_b = binary_Tj_recurrence(BinaryWeights.make(0, 0, 1, 0, 0), 1, 3, 9)
        for j in range(-1, 4):
            assert rows_e[j].matches(rows_b[j])

    def test_row_stabilizes(self):
        rows = dary_Tj_recurrence(ODD1, 8, 7)
        assert rows[8].matches(tree_root(ODD1.kinds, 7))


class TestCharacteristicFactor:
    @pytest.mark.parametrize("fam", [ODD1, EVEN1], ids=str)
    def test_single_branch_solves_characteristic(self, fam):
        f, c = char_poly(fam, 40)
        assert c == 1
        x1 = family_base(fam.kinds, 40)[0].elementary[0]
        acc = Series.zero(40)
        for k, fk in enumerate(f):
            acc = acc + fk * x1**k
        assert acc.is_zero()

    @pytest.mark.parametrize("fam", [ODD2, EVEN2], ids=str)
    def test_factor_reconstructs(self, fam):
        f, c = char_poly(fam, 30)
        a, b = hensel_factor_pair(f, c)
        prod = [Series.zero(30) for _ in range(len(a) + len(b) - 1)]
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = prod[i + j] + ai * bj
        assert all((prod[k] - f[k]).is_zero() for k in range(len(f)))

    @pytest.mark.parametrize("fam", [ODD1, ODD2, EVEN1, EVEN2, EVEN3], ids=str)
    def test_elementary_functions_vanish_at_origin(self, fam):
        small = family_base(fam.kinds, 12)[0]
        assert small.c == fam.branch_count
        for e in small.elementary:
            assert e.valuation() is not None and e.valuation() >= 1


class TestRationalParametrization:
    def test_ternary_closed_form(self):
        t_of_x, _ = dary_rational_parametrization(ODD1)
        expected = RationalFunction(
            MultiPoly(("X",), {(0,): 1, (1,): 1, (2,): 1}),
            MultiPoly(("X",), {(0,): 1, (2,): 1}),
        )
        assert t_of_x.equals(expected)

    @pytest.mark.parametrize("fam", [ODD1, ODD2, EVEN1, EVEN2, EVEN3], ids=str)
    def test_defining_equation_identity(self, fam):
        t_of_x, z_of_x = dary_rational_parametrization(fam)
        assert (t_of_x - 1 - z_of_x * t_of_x**fam.arity).num.is_zero()

    @pytest.mark.parametrize("fam", [ODD1, EVEN1], ids=str)
    def test_series_consistency_single_branch(self, fam):
        t_of_x, z_of_x = dary_rational_parametrization(fam)
        branch = family_base(fam.kinds, 30)[0].elementary[0]
        assert t_of_x.eval_series({"X": branch}).matches(tree_root(fam.kinds, 30))
        assert z_of_x.eval_series({"X": branch}).matches(Series.z(30))


class TestOneParamFamily:
    @pytest.mark.parametrize("fam", [ODD1, ODD2, EVEN1, EVEN2, EVEN3], ids=str)
    def test_exact_identity(self, fam):
        assert level_identity(fam.kinds, *one_param_rows(fam))

    def test_residual_reported_on_wrong_exponents(self):
        # sanity: a perturbed family must NOT satisfy the identity
        assert level_identity(EVEN1.kinds, *one_param_rows(EVEN1))
        bad_fam = DaryFamily("even", 1)
        sol = one_param_solution(bad_fam)
        variables = ("X", "lam", "Y")
        perturbed = RationalFunction(
            sol.num * MultiPoly.var(variables, "X"), sol.den
        )
        # direct reuse of the checker with a wrong family is not exposed;
        # instead check the perturbed solution fails the cross-multiplied
        # equality with the genuine one
        assert not sol.equals(perturbed)

    @pytest.mark.parametrize("fam", [ODD1, ODD2, EVEN1, EVEN3], ids=str)
    def test_checker_rejects_a_perturbed_solution(self, fam, monkeypatch):
        sol = one_param_solution(fam)
        variables = sol.variables
        X = MultiPoly.var(variables, "X")
        shifted_pole = MultiPoly.const(variables, 1) - MultiPoly.monomial(variables, (1, 1, 1))
        # a stray factor X, and an extra pole that keeps the lam = 0 limit 1
        for perturbed in (RationalFunction(sol.num * X, sol.den),
                          RationalFunction(sol.num, sol.den * shifted_pole)):
            monkeypatch.setattr(dary, "one_param_solution", lambda f, p=perturbed: p)
            assert not level_identity(fam.kinds, *one_param_rows(fam))

    def test_even_one_matches_binary_ratio_pattern(self):
        sol = one_param_solution(EVEN1)
        variables = ("X", "lam", "Y")

        def factor(e):
            return MultiPoly.const(variables, 1) - MultiPoly.monomial(variables, (e, 1, 1))

        ref = RationalFunction(factor(2) * factor(7), factor(4) * factor(5))
        assert sol.equals(ref)

    def test_odd_one_exponent_pattern(self):
        sol = one_param_solution(ODD1)
        variables = ("X", "lam", "Y")

        def factor(e):
            return MultiPoly.const(variables, 1) - MultiPoly.monomial(variables, (e, 1, 1))

        ref = RationalFunction(factor(2) * factor(5), factor(3) * factor(4))
        assert sol.equals(ref)

    def test_zero_parameter_collapses_to_limit(self):
        sol = one_param_solution(ODD2)
        # substituting lam = 0 must give 1 (i.e. T_j = T)
        num0 = MultiPoly(
            ("X", "lam", "Y"),
            {e: c for e, c in sol.num.terms.items() if e[1] == 0},
        )
        den0 = MultiPoly(
            ("X", "lam", "Y"),
            {e: c for e, c in sol.den.terms.items() if e[1] == 0},
        )
        assert RationalFunction(num0, den0).equals(
            RationalFunction(MultiPoly.const(("X", "lam", "Y"), 1))
        )


class TestExpansionCoefficients:
    @pytest.mark.parametrize("fam", [ODD1, ODD2, EVEN1, EVEN2], ids=str)
    def test_closed_equals_recurrence(self, fam):
        closed = dary_alpha_one_param_closed(fam, 10)
        rec = one_param_recurrence(fam, 10)
        for n in range(2, 11):
            assert closed[n - 1].equals(rec[n - 1])

    @pytest.mark.parametrize("fam", [ODD1, ODD2, ODD3, EVEN1, EVEN2, EVEN3], ids=str)
    def test_recurrence_matches_ungrouped_reference(self, fam):
        got = one_param_recurrence(fam, 8)
        ref = ref_one_param_recurrence(fam, 8)
        assert [(a.num, a.den) for a in got] == [(a.num, a.den) for a in ref]

    @pytest.mark.parametrize("splits", [
        lambda size: _compositions(7, size),
        lambda size: _splits((2, 1, 2), size),
    ], ids=["compositions", "splits"])
    def test_terms_are_keyed_by_their_multiset(self, splits):
        terms = list(_terms_by_multiset(EVEN2.offsets, 4, splits))
        assert terms
        for key, combo, parts in terms:
            assert key == tuple(sorted(parts)) and len(combo) == len(parts)
        # every reordering of a term's parts is a term with the same key
        keys = {parts: key for key, _, parts in terms}
        for parts, key in keys.items():
            for perm in itertools.permutations(parts):
                assert keys[perm] == key

    def test_recurrence_makes_few_products_per_multiset(self, monkeypatch):
        # per multiset of parts, one product onto its memoised prefix and
        # one with its X-polynomial; per level, one cofactor product per
        # number of parts, and no quotient.  Grouping by ordered
        # compositions (154 of them, against 44 multisets) would need more
        calls = []
        original = MultiPoly.__mul__

        def counting(x, y):
            calls.append(1)
            return original(x, y)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        list(recomputed_sums(EVEN2.kinds, *dary._one_param_parts(EVEN2, 8)))
        monkeypatch.undo()
        multisets = sum(len({tuple(sorted(p)) for size in range(2, min(n, 4) + 1)
                             for p in _compositions(n, size)}) for n in range(2, 9))
        sizes = sum(min(n, 4) - 1 for n in range(2, 9))
        # closed numerators, pair, first^k and pair^k for k <= 4, first^(l-s) pair^s for s <= l <= 4
        setup = 8 + 1 + 4 + 4 + 6
        assert (multisets, sizes) == (44, 18)
        assert len(calls) == setup + 2 * multisets + sizes

    def test_first_is_seed(self):
        closed = dary_alpha_one_param_closed(ODD2, 3)
        assert closed[0].equals(RationalFunction(MultiPoly.const(("X",), 1)))

    def test_general_table_keeps_seeds(self):
        seeds = [Series([0, 0, 1], 18), Series([0, 0, 2], 18)]
        table = dary_alpha_general(ODD2, 2, seeds, 14)
        assert table.entry((1, 0)).as_series(14).matches(seeds[0])
        assert table.entry((0, 1)).as_series(14).matches(seeds[1])

    def test_single_branch_table_reduces_to_closed(self):
        table = dary_alpha_general(ODD1, 6, [Series.one(30)], 24)
        closed = dary_alpha_one_param_closed(ODD1, 6)
        branch = family_base(ODD1.kinds, 40)[0].elementary[0]
        for n in range(1, 7):
            got = table.entry((n,)).as_series(20)
            assert got.matches(closed[n - 1].eval_series({"X": branch}))

    @pytest.mark.parametrize("fam,bound,order", [
        (ODD1, 3, 15), (EVEN1, 3, 15), (ODD2, 3, 15), (EVEN2, 2, 12)], ids=str)
    def test_table_matches_first_written_loop(self, fam, bound, order):
        table = table_of(fam, bound, order)
        ref = ref_alpha_general(fam, bound, main_equation_seeds(fam, bound, order), order)
        assert ref.keys() == table.entries.keys()
        for index, entry in table.entries.items():
            assert coordinates_agree(entry, ref[index]), index
            assert entry.stored_order >= order

    @pytest.mark.parametrize("fam,bound", [(ODD2, 3), (EVEN2, 2)], ids=str)
    def test_entries_hold_every_stored_coefficient(self, fam, bound):
        # every entry is known at least to the table's order, and a table
        # three orders longer agrees on all it stores: no coefficient is a
        # padded guess
        seeds = [Series.z(40) ** 4] * fam.branch_count
        table = dary_alpha_general(fam, bound, seeds, 12)
        longer = dary_alpha_general(fam, bound, seeds, 15)
        for index, entry in table.entries.items():
            assert entry.stored_order >= 12
            assert coordinates_agree(entry, longer.entries[index]), index

    def test_short_seed_is_refused_not_padded(self):
        # z^2/(1-z) known to 5 terms, padded with zeros, gave 863 and 8184
        # at z^6 and z^7 of the level-2 sum, and claimed order 8; known to
        # the table's order, it is enough
        geometric = [0, 0] + [1] * 18
        for known in (5, 7):
            with pytest.raises(InsufficientPrecision, match=f"seed 0 is known to {known} orders"):
                dary_alpha_general(ODD2, 2, [Series(geometric[:known])] * 2, 8)
        for known in (8, 9, 20):
            table = dary_alpha_general(ODD2, 2, [Series(geometric[:known])] * 2, 8)
            assert rho_series(table, 2, 8).coeffs[6:] == (865, 8197)

    def test_entry_short_of_the_order_raises(self, monkeypatch):
        # an inverse known to two orders fewer leaves entries below the
        # table's order: refused, not returned with the order claimed
        original = SplitAlgebra.invert_one_plus

        def lossy(alg, u, order=None):
            y = original(alg, u, order)
            return y.with_order(max(1, y.stored_order - 2))

        monkeypatch.setattr(SplitAlgebra, "invert_one_plus", lossy)
        with pytest.raises(InsufficientPrecision, match="entry"):
            dary_alpha_general(ODD2, 2, main_equation_seeds(ODD2, 2, 12), 12)

    @pytest.mark.parametrize("fam,bound,order", [
        (ODD1, 3, 15), (ODD2, 3, 15), (EVEN2, 2, 12), (EVEN2, 3, 15)], ids=str)
    def test_rho_equals_full_precision_level_sum(self, fam, bound, order):
        # EVEN2 at bound 3 and order 15 is the props/main-equation-d2 table
        table = table_of(fam, bound, order)
        levels = rho_levels(fam)
        assert levels[0] == 0
        for j in levels:
            assert rho_series(table, j, order) == ref_rho_series(table, j, order), j

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([ODD1, EVEN1, ODD2, EVEN2]), st.integers(1, 4), st.integers(1, 3),
           st.lists(st.integers(-3, 3), min_size=8, max_size=8), st.integers(0, 8))
    def test_rho_equals_reference_on_random_tables(self, fam, valuation, bound, tail, j):
        # equal seeds z^valuation (1 + ...), with the rest of the coefficients drawn
        order = 10
        seed = Series([0] * valuation + [1] + tail, order + 1 + valuation)
        table = dary_alpha_general(fam, bound, [seed] * fam.branch_count, order)
        assert rho_series(table, j, order) == ref_rho_series(table, j, order)

    def test_rho_is_symmetric_series(self):
        seeds = [Series.z(20) ** 2 for _ in range(2)]
        table = dary_alpha_general(ODD2, 2, seeds, 15)
        rho = rho_series(table, 3, 12)
        assert rho.valuation() is not None and rho.valuation() >= 2


class TestMainEquation:
    @pytest.mark.parametrize("fam,order", [(ODD1, 25), (EVEN1, 20)])
    def test_single_branch(self, fam, order):
        report = verify_main_equation(fam, 3, order)
        assert report.ok, report

    @pytest.mark.parametrize("fam", [ODD2, EVEN2], ids=str)
    def test_two_and_three_branches(self, fam):
        report = verify_main_equation(fam, 3, 15)
        assert report.ok, report

    def test_odd_three_at_bound_three(self):
        report = verify_main_equation(ODD3, 3, 15)
        assert report.ok, report

    @pytest.mark.parametrize("fam", [ODD1, ODD2, ODD3, EVEN1, EVEN2, EVEN3], ids=str)
    def test_bound_two(self, fam):
        # even d = 3 has five branches, an algebra of 120 coordinates
        report = verify_main_equation(fam, 2, 12)
        assert report.ok, report

    @pytest.mark.parametrize("fam", [ODD2, ODD3, EVEN2], ids=str)
    def test_inverts_one_plus_a_root(self, fam):
        # a root has z-valuation 1/c, the smallest an element can have, so
        # Newton's precision doubles in units of z^(1/c)
        alg = SplitAlgebra(family_base(fam.kinds, 12)[0])
        for g in range(alg.c):
            u = alg.generator(g)
            y = alg.invert_one_plus(u)
            assert y.stored_order == alg.order
            assert ((alg.one() + u) * y - alg.one()).is_zero()

    def test_failure_is_reported_with_location(self):
        # tampered seeds of too-low valuation leave a nonzero residual tail
        seeds = [Series([0, 1], 20) for _ in range(ODD1.branch_count)]
        report = verify_main_equation(ODD1, 1, 12, seeds=seeds)
        assert not report.ok
        assert report.first_failure is not None


def test_dary_enumeration_guard():
    from embtrees.errors import SizeTooLarge

    with pytest.raises(SizeTooLarge):
        brute_force_dary(ODD1, 0, 9)
