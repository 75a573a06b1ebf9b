"""The integer series core against a plain-Fraction reference.

The reference below is the textbook algorithm on lists of Fractions:
schoolbook products, the division recurrence and the square-root
recurrence.  The core must agree with it coefficient for coefficient,
including long series and coefficients at byte edges.
"""

import json
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees.cli import main
from embtrees.errors import DivisionByNonUnit
from embtrees import serialize
from embtrees.serialize import (
    SeriesCache, export_series, import_series, ratio_str, reformat,
)
from embtrees.series import Series

# -- the reference ----------------------------------------------------------


def ref_mul(a, b):
    n = min(len(a), len(b))
    out = [Q(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_div(a, b):
    """a / b after cancelling the valuation of b; None when it cannot cancel."""
    vb = next((i for i, c in enumerate(b) if c), None)
    if vb is None or any(a[:vb]) or min(len(a), len(b)) <= vb:
        return None
    a, b = a[vb:], b[vb:]
    n = min(len(a), len(b))
    out = []
    for m in range(n):
        acc = a[m] - sum((b[i] * out[m - i] for i in range(1, m + 1)), Q(0))
        out.append(acc / b[0])
    return out


def ref_sqrt(a):
    out = [Q(1)]
    for m in range(1, len(a)):
        acc = a[m] - sum((out[i] * out[m - i] for i in range(1, m)), Q(0))
        out.append(acc / 2)
    return out


def ref_pow(a, k):
    if k < 0:
        return ref_pow(ref_div([Q(1)] + [Q(0)] * (len(a) - 1), a), -k)
    out = [Q(1)] + [Q(0)] * (len(a) - 1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


# -- strategies -------------------------------------------------------------

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
wide = st.builds(Q, st.integers(-(2**90), 2**90), st.sampled_from([1, 1, 2, 3, 7, 12, 2**61 - 1]))
coeff = st.one_of(small, wide, st.just(Q(0)))


@st.composite
def coeff_lists(draw, min_size=1, max_size=40):
    n = draw(st.integers(min_size, max_size))
    cs = draw(st.lists(coeff, min_size=n, max_size=n))
    # leading and trailing zeros exercise the valuation and the trimming
    lead = draw(st.integers(0, n - 1))
    trail = draw(st.integers(lead, n))
    return [Q(0)] * lead + cs[lead:trail] + [Q(0)] * (n - trail)


def unit(cs):
    return cs if cs[0] else [Q(-3, 2)] + cs[1:]


def as_list(s):
    return list(s.coeffs)


# -- products, sums, scalars -------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), coeff_lists(), small)
def test_ring_operations_match_reference(a, b, q):
    sa, sb = Series(a), Series(b)
    n = min(len(a), len(b))
    assert as_list(sa * sb) == ref_mul(a, b)
    assert as_list(sa + sb) == [x + y for x, y in zip(a[:n], b[:n])]
    assert as_list(sa - sb) == [x - y for x, y in zip(a[:n], b[:n])]
    assert as_list(-sa) == [-x for x in a]
    assert as_list(sa * q) == [x * q for x in a]
    assert as_list(sa * 6) == [x * 6 for x in a]
    assert sa.is_zero() == (not any(a))
    assert sa.valuation() == next((i for i, c in enumerate(a) if c), None)
    for k in (1, len(a) // 2 + 1, len(a)):
        assert as_list(sa.truncate(k)) == a[:k]


@settings(max_examples=6, deadline=None)
@given(st.integers(100, 160), st.data())
def test_long_products_match_reference(n, data):
    a = data.draw(st.lists(coeff, min_size=n, max_size=n))
    b = data.draw(st.lists(coeff, min_size=n, max_size=n))
    assert as_list(Series(a) * Series(b)) == ref_mul(a, b)


@pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 200])
def test_kronecker_digit_edges(bits):
    # coefficients at byte edges (2^bits - 1), both signs
    top = 2**bits - 1
    a = [top, -top, top, 0, -top, 1, -1, top] * 4
    b = [-top, -top, 1, top, 0, top, -1, -top] * 4
    assert as_list(Series(a) * Series(b)) == ref_mul([Q(c) for c in a], [Q(c) for c in b])


@pytest.mark.parametrize("length", [3, 7, 15, 31, 63])
def test_kronecker_largest_product_coefficients(length):
    # equal full-size coefficients make the last product coefficient reach
    # length * top^2, the largest a product of this length can reach
    for bits in range(1, 13):
        top = 2**bits - 1
        for sign in (1, -1):
            a = [Q(top)] * length
            b = [Q(sign * top)] * length
            assert as_list(Series(a) * Series(b)) == ref_mul(a, b)


# -- division, square root, powers ------------------------------------------


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), coeff_lists())
def test_division_matches_reference(a, b):
    expected = ref_div(a, b)
    if expected is None:
        with pytest.raises(DivisionByNonUnit):
            Series(a) / Series(b)
    else:
        assert as_list(Series(a) / Series(b)) == expected


@settings(max_examples=60, deadline=None)
@given(coeff_lists(max_size=30), coeff_lists(max_size=30), st.integers(1, 4))
def test_valuation_cancelling_division(a, b, v):
    # z^v a / (z^v unit(b)): the quotient loses v orders
    num = [Q(0)] * v + a
    den = [Q(0)] * v + unit(b)
    got = Series(num) / Series(den)
    assert got.order == min(len(num), len(den)) - v
    assert as_list(got) == ref_div(num, den)


@settings(max_examples=4, deadline=None)
@given(st.integers(100, 130), st.data())
def test_long_division_matches_reference(n, data):
    # long dense divisors
    a = data.draw(st.lists(small, min_size=n, max_size=n))
    b = unit(data.draw(st.lists(small, min_size=n, max_size=n)))
    assert as_list(Series(a) / Series(b)) == ref_div(a, b)


@settings(max_examples=80, deadline=None)
@given(coeff_lists(max_size=30))
def test_sqrt_matches_reference(tail):
    a = [Q(1)] + tail
    assert as_list(Series(a).sqrt()) == ref_sqrt(a)


@settings(max_examples=60, deadline=None)
@given(coeff_lists(max_size=12), st.integers(-3, 4))
def test_pow_matches_reference(a, k):
    a = unit(a)
    assert as_list(Series(a) ** k) == ref_pow(a, k)


# -- equality and hashing ----------------------------------------------------


def test_equal_series_built_differently_are_equal_and_hash_alike():
    pairs = [
        (Series([Q(2, 4)]), Series([Q(1, 2)])),
        (Series.from_ratios([(2, 4), (6, 4)]), Series([Q(1, 2), Q(3, 2)])),
        (Series([1, 2, 3]) * Q(1, 2), Series([Q(1, 2), 1, Q(3, 2)])),
        (Series([1, Q(1, 2)]).truncate(1), Series([1])),
        (Series([Q(1, 3), Q(2, 3)]) + Series([Q(2, 3), Q(1, 3)]), Series([1, 1])),
        ((Series([1, 2, 5]) / Series([2, 1, 0])) * Series([2, 1, 0]), Series([1, 2, 5])),
        (Series([Q(1, 6)]) * 0, Series.zero(1)),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)
        assert left.coeffs == right.coeffs


def test_orders_and_values_both_count_for_equality():
    assert Series([1, 0]) != Series([1])
    assert Series([Q(1, 2)]) != Series([Q(1, 3)])
    assert Series([1, 0]).matches(Series([1]))


# -- serialization and the cache ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(coeff_lists())
def test_json_and_csv_round_trips(cs):
    s = Series(cs)
    for fmt in ("json", "csv"):
        back = import_series(export_series(s, fmt), fmt)
        assert back == s and list(back.coeffs) == cs


def test_export_writes_reduced_pairs():
    s = Series([Q(-1, 2), 3, Q(4, 6), 0])
    assert json.loads(export_series(s, "json"))["coeffs"] == ["-1/2", "3", "2/3", "0"]
    assert export_series(s, "csv").splitlines()[1:] == ["0,-1,2", "1,3,1", "2,2,3", "3,0,1"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cache_hit_is_bit_identical(fmt, tmp_path, capsys):
    argv = ["trees", "--w1", "1/2", "--w2", "1/3", "--order", "9",
            "--format", fmt, "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    computed = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == computed
    assert any(c.denominator > 1 for c in import_series(computed, fmt).coeffs)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cache_hit_builds_no_series(fmt, tmp_path, capsys, monkeypatch):
    argv = ["trees", "--w1", "1/2", "--w2", "1/3", "--order", "9",
            "--format", fmt, "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    computed = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit parsed its entry")

    monkeypatch.setattr(serialize, "import_series", refuse)
    monkeypatch.setattr("embtrees.cli.import_series", refuse)
    monkeypatch.setattr(Series, "from_ratios", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == computed


huge = st.builds(Q, st.integers(-(2**100), 2**100), st.integers(1, 2**100))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(coeff, huge), min_size=1, max_size=30))
def test_csv_rewrite_of_the_json_text_is_the_csv_export(cs):
    s = Series(cs)
    assert reformat(export_series(s, "json"), "csv") == export_series(s, "csv")


# the entry check as it was before it became one match of the writer's grammar:
# parse the text, check the types and the coefficient strings, and dump it again
REFERENCE_RATIO = re.compile(r"0|-?[1-9][0-9]*(?:/(?:[2-9]|[1-9][0-9]+))?")


def reference_is_written_entry(text: str, order: int) -> bool:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: nested too deep to parse
        return False
    if type(data) is not dict or list(data) != ["order", "coeffs"]:
        return False
    coeffs = data["coeffs"]
    if type(data["order"]) is not int or data["order"] != order or type(coeffs) is not list:
        return False
    try:
        if len(coeffs) != order or not all(map(REFERENCE_RATIO.fullmatch, coeffs)):
            return False
    except TypeError:  # a coefficient that is not a string
        return False
    return json.dumps(data) == text


# coefficient strings, unreduced ones such as 2/4 among them
written_ratio = st.one_of(st.integers(-(10**30), 10**30).map(str),
                          st.builds(ratio_str, st.integers(-(10**30), 10**30).filter(bool),
                                    st.integers(2, 10**6)))
EDIT_CHARS = '0123456789-/", :[]{}\\eortu\n'


@st.composite
def one_edit(draw, text: str) -> str:
    """``text`` with one character inserted, deleted or replaced."""
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(EDIT_CHARS))
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + ("" if kind == "delete" else char) + text[at + 1:]


@settings(max_examples=400, deadline=None)
@given(st.lists(written_ratio, max_size=12), st.data())
def test_entry_check_agrees_with_the_parse_and_redump_reference(coeffs, data):
    order = len(coeffs)
    written = json.dumps({"order": order, "coeffs": coeffs})
    assert serialize._is_written_entry(written, order)
    miscounted = json.dumps({"order": order + 1, "coeffs": coeffs})
    for text in (written, miscounted, data.draw(one_edit(written))):
        for asked in (order - 1, order, order + 1):
            assert serialize._is_written_entry(text, asked) == reference_is_written_entry(text, asked)


@pytest.mark.parametrize("text,order,hit", [
    ('{"order": 0, "coeffs": []}', 0, True),
    ('{"order": 2, "coeffs": ["2/4", "-6/9"]}', 2, True),
    ('{"order": 1, "coeffs": ["1/1"]}', 1, False),
    ('{"order": 1, "coeffs": ["01"]}', 1, False),
    ('{"order": 1, "coeffs": ["1/02"]}', 1, False),
    ('{"order": 01, "coeffs": ["1"]}', 1, False),
    ('{"order": 1, "coeffs": ["1"]}\n', 1, False),
    ('{"order": 1, "coeffs": [ "1"]}', 1, False),
    ('{"order": 1, "coeffs": ["\\u0031"]}', 1, False),
    ('{"order": 1, "order": 1, "coeffs": ["1"]}', 1, False),
    ('{"coeffs": ["1"], "order": 1}', 1, False),
    ('{"order": true, "coeffs": ["1"]}', 1, False),
    ('{"order": 1, "coeffs": [1]}', 1, False),
    ('[' * 100_000, 0, False),
])
def test_entry_check_cases(text, order, hit):
    assert serialize._is_written_entry(text, order) is hit
    assert reference_is_written_entry(text, order) is hit


def test_cache_returns_negative_rational_series_unchanged(tmp_path):
    cache = SeriesCache(tmp_path)
    s = Series([Q(-7, 3), 0, Q(5, 12), -(2**70), Q(1, 2**61 - 1)])
    cache.put("k", export_series(s))
    hit = import_series(cache.get("k", 5))
    assert hit == s and hit.coeffs == s.coeffs
    assert export_series(hit, "json") == export_series(s, "json")
