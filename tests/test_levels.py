from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from embtrees.levels import label_spectra, level_rows

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

