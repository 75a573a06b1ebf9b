"""Exact series serialization and the advisory result cache.

Rationals are persisted as decimal integer-pair strings ("p" or "p/q"),
never as floats, so every round trip is bit-exact.  The cache maps a
canonical key hash to a JSON payload and may be deleted at any time.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from .series import Q, Series


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


def export_series(series: Series, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(
            {"order": series.order,
             "coeffs": [ratio_str(p, q) for p, q in series.ratios()]}
        )
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("n,numerator,denominator\n")
        for n, (p, q) in enumerate(series.ratios()):
            buf.write(f"{n},{p},{q}\n")
        return buf.getvalue()
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
        return Series.from_ratios([_parse_ratio(c) for c in coeffs], order)
    if fmt == "csv":
        rows = text.strip().splitlines()
        pairs = []
        for row in rows[1:]:
            _, num, den = row.split(",")
            pairs.append(_ratio(int(num), int(den)))
        return Series.from_ratios(pairs)
    raise ValueError(f"unknown format {fmt!r}")


def cache_key(*parts) -> str:
    canonical = json.dumps([str(p) for p in parts])
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SeriesCache:
    """File-backed advisory cache; a miss, or an entry it cannot read, returns None, never an error."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def put(self, key: str, series: Series) -> Path:
        """Write to a temporary file and rename it, so no reader sees a torn entry."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f".{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(export_series(series, "json"))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return path

    def get(self, key: str) -> Series | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return import_series(path.read_text(), "json")
        except (OSError, ValueError, ZeroDivisionError):
            return None
