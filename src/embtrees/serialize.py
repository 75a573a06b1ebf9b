"""Exact series serialization and the advisory result cache.

Rationals are persisted as decimal integer-pair strings ("p" or "p/q"),
never as floats, so every round trip is bit-exact.  The cache maps a
canonical key hash to the JSON text ``export_series`` writes; an entry
may be deleted at any time.  A hit is matched, unparsed, against the
writer's own grammar and returned as it is; any other entry is a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

from .series import Q, Series

# the coefficient strings ratio_str writes: 0, or a nonzero integer over an
# optional denominator of at least 2
_WRITTEN_RATIO = re.compile(r"0|-?[1-9][0-9]*(?:/(?:[2-9]|[1-9][0-9]+))?")
# the item and key separators of the json text export_series writes
_SEPARATORS = (", ", ": ")
_ITEM, _KEY = map(re.escape, _SEPARATORS)
_COEFF = f'"(?:{_WRITTEN_RATIO.pattern})"'
# that json text: the order (group 1), then its coefficients
_WRITTEN_ENTRY = re.compile(rf'\{{"order"{_KEY}(0|[1-9][0-9]*){_ITEM}"coeffs"{_KEY}'
                            rf'\[(?:{_COEFF}(?:{_ITEM}{_COEFF})*)?\]\}}')


def ratio_str(p: int, q: int) -> str:
    return str(p) if q == 1 else f"{p}/{q}"


def _ratio(p: int, q: int) -> tuple[int, int]:
    """p/q as a pair with a positive denominator."""
    if q == 0:
        raise ZeroDivisionError(f"zero denominator in {p}/{q}")
    return (-p, -q) if q < 0 else (p, q)


def _parse_ratio(text: str) -> tuple[int, int]:
    """(p, q), q > 0, of a "p" or "p/q" string, or of any other string Fraction accepts."""
    num, slash, den = text.partition("/")
    try:
        return _ratio(int(num), int(den) if slash else 1)
    except ValueError:
        f = Q(text)
        return f.numerator, f.denominator


def _csv_rows(coeffs) -> str:
    """The csv text of a series given by its "p" or "p/q" coefficient strings."""
    rows = ["n,numerator,denominator\n"]
    for n, c in enumerate(coeffs):
        num, _, den = c.partition("/")
        rows.append(f"{n},{num},{den or 1}\n")
    return "".join(rows)


def export_series(series: Series, fmt: str = "json") -> str:
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    coeffs = [ratio_str(p, q) for p, q in series.ratios()]
    if fmt == "json":
        return json.dumps({"order": series.order, "coeffs": coeffs}, separators=_SEPARATORS)
    return _csv_rows(coeffs)


def reformat(text: str, fmt: str) -> str:
    """The series whose ``export_series`` json text is ``text``, in format ``fmt``.

    The same characters ``export_series(series, fmt)`` gives, without the
    series: json is ``text`` itself and csv rewrites its coefficient strings.
    """
    if fmt == "json":
        return text
    if fmt == "csv":
        return _csv_rows(json.loads(text)["coeffs"])
    raise ValueError(f"unknown format {fmt!r}")


def import_series(text: str, fmt: str = "json") -> Series:
    if fmt == "json":
        data = json.loads(text)
        if not isinstance(data, dict):
            data = {}
        order, coeffs = data.get("order"), data.get("coeffs")
        if (type(order) is not int or not isinstance(coeffs, list)
                or not all(isinstance(c, str) for c in coeffs)):
            raise ValueError("a json series is an object with an integer order and a list of "
                             "coefficient strings")
        if len(coeffs) != order:
            raise ValueError(f"a json series of order {order} lists {len(coeffs)} coefficients")
        return Series.from_ratios([_parse_ratio(c) for c in coeffs], order)
    if fmt == "csv":
        rows = text.strip().splitlines()
        pairs = []
        for row in rows[1:]:
            _, num, den = row.split(",")
            pairs.append(_ratio(int(num), int(den)))
        return Series.from_ratios(pairs)
    raise ValueError(f"unknown format {fmt!r}")


def _is_written_entry(text: str, order: int) -> bool:
    """Whether ``text`` is what ``export_series(s, "json")`` writes for an s of this order.

    One match of the writer's grammar, so that a hit prints what recomputing
    would; a coefficient holds no quote, so the quotes count the coefficients.
    Whether each p/q is in lowest terms is not checked.
    """
    match = _WRITTEN_ENTRY.fullmatch(text)
    return match is not None and match[1] == str(order) and text.count('"') == 4 + 2 * order


def cache_key(*parts) -> str:
    canonical = json.dumps([str(p) for p in parts])
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SeriesCache:
    """File-backed advisory cache of series texts, one file per key.

    ``put`` stores the json text ``export_series`` wrote for a series, and
    ``get`` returns that text unparsed.  ``get`` returns None, a miss and
    never an error, for an absent or unreadable entry and for any entry not
    in the writer's form for the order asked for, so a foreign, truncated
    or hand-edited file is recomputed by the caller and replaced.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def put(self, key: str, text: str) -> Path:
        """Write to a temporary file and rename it, so no reader sees a torn entry."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f".{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return path

    def get(self, key: str, order: int) -> str | None:
        """The stored text of ``key`` if it is a written entry of this order, else None."""
        try:
            text = self._path(key).read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError):
            return None
        return text if _is_written_entry(text, order) else None
