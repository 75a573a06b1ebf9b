"""Offline-first integer-sequence cross reference.

Seven sequences reachable from the binary-tree weight vectors ship as
bundled fixtures (terms aligned with the generating-function convention,
constant term first).  Matching is a pure prefix comparison of integer
coefficients; remote b-file fetching exists but only behind an explicit
opt-in, so the default operation never touches the network.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedBFile, NetworkDisabled, NonIntegerCoefficients
from .series import Series

# Fixture terms generated from the Lagrange-inversion coefficients of
# T = 1 + b z T + g z T^2 and cross-checked against the published data.
FIXTURES: dict[str, list[int]] = {
    "A000108": [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900],
    "A006318": [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718, 5293446, 27297738, 142078746],
    "A047891": [1, 3, 12, 57, 300, 1686, 9912, 60213, 374988, 2381322, 15361896, 100389306, 663180024, 4421490924],
    "A082298": [1, 4, 20, 116, 740, 5028, 35700, 261780, 1967300, 15072836, 117297620, 924612532, 7367204260, 59240277988],
    "A103210": [1, 4, 24, 176, 1440, 12608, 115584, 1095424, 10646016, 105522176, 1062623232, 10840977408, 111811534848, 1163909087232],
    "A052701": [1, 2, 8, 40, 224, 1344, 8448, 54912, 366080, 2489344, 17199104, 120393728, 852017152, 6085836800],
    "A005159": [1, 3, 18, 135, 1134, 10206, 96228, 938223, 9382230, 95698746, 991787004, 10413763542, 110546105292, 1184422556700],
}

# binary-tree weight vectors (v1, v2, w1, w2, w3) realizing each fixture
FIXTURE_WEIGHTS: dict[str, tuple[int, int, int, int, int]] = {
    "A000108": (0, 0, 1, 0, 0),
    "A006318": (0, 1, 1, 0, 0),
    "A047891": (1, 0, 1, 0, 0),
    "A082298": (1, 1, 1, 0, 0),
    "A103210": (1, 0, 0, 0, 1),
    "A052701": (0, 0, 0, 0, 1),
    "A005159": (0, 0, 0, 1, 1),
}


@dataclass(frozen=True)
class OeisRecord:
    id: str
    terms: tuple[int, ...]
    source: str  # "bundled_fixture" or "fetched"

    def __post_init__(self):
        if not self.terms:
            raise ValueError("sequence record needs at least one term")


def fixture_record(seq_id: str) -> OeisRecord:
    return OeisRecord(seq_id, tuple(FIXTURES[seq_id]), "bundled_fixture")


def series_integers(series: Series) -> list[int]:
    """Coefficients as ints; error if any denominator is not 1."""
    out = []
    for n, c in enumerate(series.coeffs):
        if c.denominator != 1:
            raise NonIntegerCoefficients(
                f"coefficient {c} at index {n} is not an integer"
            )
        out.append(c.numerator)
    return out


def oeis_match(series: Series, min_terms: int = 8) -> list[str]:
    """Fixture ids whose terms agree with the series on >= min_terms entries."""
    ints = series_integers(series)
    hits = []
    for seq_id, terms in sorted(FIXTURES.items()):
        n = min(len(ints), len(terms))
        if n >= min_terms and ints[:n] == terms[:n]:
            hits.append(seq_id)
    return hits


def parse_b_file(text: str) -> list[int]:
    """Parse the "n a(n)" line format; '#' comment lines are skipped."""
    terms: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedBFile(f"expected 'n a(n)', got {raw!r}", lineno)
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedBFile(f"non-integer field in {raw!r}", lineno) from None
        terms.append((idx, val))
    if not terms:
        raise MalformedBFile("no data lines", 0)
    return [val for _, val in terms]


def format_b_file(seq_id: str, terms, offset: int = 0) -> str:
    lines = [f"# {seq_id}"]
    lines.extend(f"{offset + n} {t}" for n, t in enumerate(terms))
    return "\n".join(lines) + "\n"


def oeis_fetch(seq_id: str, allow_network: bool = False, timeout: float = 30.0) -> OeisRecord:
    """Fetch a b-file; requires the explicit network opt-in flag."""
    if seq_id in FIXTURES and not allow_network:
        return fixture_record(seq_id)
    if not allow_network:
        raise NetworkDisabled(
            f"{seq_id} is not bundled and network fetch was not enabled"
        )
    # the network stack (http, ssl) is loaded only for an opted-in fetch
    import urllib.request

    number = seq_id.lstrip("A")
    url = f"https://oeis.org/{seq_id}/b{number}.txt"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8")
    return OeisRecord(seq_id, tuple(parse_b_file(text)), "fetched")
