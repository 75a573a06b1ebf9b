import io
import urllib.error
import urllib.request

import pytest

from embtrees.binary import BinaryWeights
from embtrees.cli import main
from embtrees.errors import MalformedBFile, NetworkDisabled, NonIntegerCoefficients
from embtrees.kernel import tree_root
from embtrees.oeis import (
    FIXTURES,
    FIXTURE_WEIGHTS,
    fixture_record,
    format_b_file,
    oeis_fetch,
    oeis_match,
    parse_b_file,
    series_integers,
)
from embtrees.series import Q, Series

EXPECTED_IDS = {
    "A000108", "A006318", "A047891", "A082298", "A103210", "A052701", "A005159",
}


def test_bundle_covers_the_named_sequences():
    assert set(FIXTURES) == EXPECTED_IDS
    for seq_id, terms in FIXTURES.items():
        assert len(terms) >= 14
        record = fixture_record(seq_id)
        assert record.source == "bundled_fixture" and record.terms[0] == 1


@pytest.mark.parametrize("seq_id", sorted(EXPECTED_IDS))
def test_fixture_matches_computed_series(seq_id):
    weights = FIXTURE_WEIGHTS[seq_id]
    series = tree_root(BinaryWeights.make(*weights).kinds, 14)
    assert series_integers(series) == FIXTURES[seq_id]
    assert seq_id in oeis_match(series, min_terms=12)


def test_catalan_matches_only_catalan():
    series = tree_root(BinaryWeights.make(0, 0, 1, 0, 0).kinds, 12)
    assert oeis_match(series) == ["A000108"]


def test_short_series_do_not_match():
    series = Series([1, 1, 2], 3)
    assert oeis_match(series, min_terms=8) == []


def test_non_integer_coefficients_rejected():
    with pytest.raises(NonIntegerCoefficients):
        oeis_match(Series([1, Q(1, 2)], 8))


def test_b_file_roundtrip():
    text = format_b_file("A000108", FIXTURES["A000108"])
    assert parse_b_file(text) == FIXTURES["A000108"]


def test_b_file_comments_and_errors():
    assert parse_b_file("# header\n0 1\n1 5\n") == [1, 5]
    with pytest.raises(MalformedBFile) as info:
        parse_b_file("0 1\n1 2 3\n")
    assert info.value.line == 2
    with pytest.raises(MalformedBFile):
        parse_b_file("0 x\n")
    with pytest.raises(MalformedBFile):
        parse_b_file("# only comments\n")


def test_fetch_is_offline_by_default():
    record = oeis_fetch("A000108")
    assert record.source == "bundled_fixture"
    with pytest.raises(NetworkDisabled):
        oeis_fetch("A000045")  # not bundled, network not enabled


def test_fetch_reads_a_b_file_from_the_network(monkeypatch):
    requests = []
    body = b"# A000045\n0 0\n1 1\n2 1\n3 2\n"

    def fake_urlopen(url, timeout):
        requests.append((url, timeout))
        return io.BytesIO(body)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    record = oeis_fetch("A000045", allow_network=True, timeout=5.0)
    assert requests == [("https://oeis.org/A000045/b000045.txt", 5.0)]
    assert record.terms == (0, 1, 1, 2) and record.source == "fetched"
    body = b"0 0\n1 x\n"
    with pytest.raises(MalformedBFile):
        oeis_fetch("A000045", allow_network=True)


def test_cli_fetch_prints_the_b_file_or_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: io.BytesIO(b"0 3\n1 4\n"))
    assert main(["oeis", "--fetch", "A000045", "--network"]) == 0
    assert capsys.readouterr().out == format_b_file("A000045", [3, 4])

    def offline(url, timeout):
        raise urllib.error.URLError("no route to host")

    monkeypatch.setattr(urllib.request, "urlopen", offline)
    assert main(["oeis", "--fetch", "A000045", "--network"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
