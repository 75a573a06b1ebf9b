"""Bivariate series: power series in z with Laurent-polynomial marker data.

A :class:`MarkerSeries` stores, for each power z^n below its order, a
finite-support Laurent polynomial in one marker variable (an endpoint
level, a free parameter, ...).  The marker exponent may be negative; the
z exponent may not.  The same min-order truncation rule as
:class:`~embtrees.series.Series` applies.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByNonUnit
from .series import Q, Series, as_fraction

_ZERO = Q(0)


def _clean(d: dict[int, Fraction]) -> dict[int, Fraction]:
    return {p: c for p, c in d.items() if c != 0}


class MarkerSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [_clean(dict(d)) for d in coeffs]
        if order is not None:
            if len(cs) < order:
                cs.extend({} for _ in range(order - len(cs)))
            else:
                cs = cs[:order]
        if not cs:
            raise ValueError("marker series needs positive order")
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> MarkerSeries:
        return cls([{}], order)

    @classmethod
    def one(cls, order: int) -> MarkerSeries:
        return cls([{0: Q(1)}], order)

    @classmethod
    def from_series(cls, s: Series) -> MarkerSeries:
        return cls([{0: c} if c != 0 else {} for c in s.coeffs])

    @classmethod
    def marker_power(cls, power: int, order: int) -> MarkerSeries:
        """The monomial m^power as a z-constant."""
        return cls([{power: Q(1)}], order)

    @classmethod
    def series_times_marker(cls, s: Series, power: int) -> MarkerSeries:
        """s(z) * m^power."""
        return cls([{power: c} if c != 0 else {} for c in s.coeffs])

    # -- accessors ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(not d for d in self.coeffs)

    def support(self, n: int) -> tuple[int, int] | None:
        """(lo, hi) marker exponents at z^n, or None when that slice is 0."""
        d = self.coeffs[n]
        if not d:
            return None
        return min(d), max(d)

    def extract(self, power: int) -> Series:
        """The z-series of marker-exponent == power coefficients."""
        return Series([d.get(power, _ZERO) for d in self.coeffs])

    def at_one(self) -> Series:
        """Specialize the marker to 1."""
        return Series([sum(d.values(), _ZERO) for d in self.coeffs])

    def truncate(self, order: int) -> MarkerSeries:
        if order > len(self.coeffs):
            raise ValueError("cannot extend precision by truncation")
        return MarkerSeries(self.coeffs[:order])

    def matches(self, other: MarkerSeries) -> bool:
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n] == other.coeffs[:n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(tuple(sorted(d.items())) for d in self.coeffs))

    def __repr__(self) -> str:
        return f"MarkerSeries(order={len(self.coeffs)})"

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> MarkerSeries | None:
        if isinstance(other, MarkerSeries):
            return other
        if isinstance(other, Series):
            return MarkerSeries.from_series(other)
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return MarkerSeries([{0: c} if c != 0 else {}], len(self.coeffs))
        return None

    def __add__(self, other) -> MarkerSeries:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(len(self.coeffs), len(rhs.coeffs))
        out = []
        for k in range(n):
            d = dict(self.coeffs[k])
            for p, c in rhs.coeffs[k].items():
                d[p] = d.get(p, _ZERO) + c
            out.append(d)
        return MarkerSeries(out)

    __radd__ = __add__

    def __neg__(self) -> MarkerSeries:
        return MarkerSeries([{p: -c for p, c in d.items()} for d in self.coeffs])

    def __sub__(self, other) -> MarkerSeries:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> MarkerSeries:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> MarkerSeries:
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            if q == 0:
                return MarkerSeries.zero(len(self.coeffs))
            return MarkerSeries(
                [{p: c * q for p, c in d.items()} for d in self.coeffs]
            )
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self.coeffs, rhs.coeffs
        n = min(len(a), len(b))
        out: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for i in range(n):
            da = a[i]
            if not da:
                continue
            for j in range(n - i):
                db = b[j]
                if not db:
                    continue
                target = out[i + j]
                for pa, ca in da.items():
                    for pb, cb in db.items():
                        p = pa + pb
                        target[p] = target.get(p, _ZERO) + ca * cb
        return MarkerSeries(out)

    __rmul__ = __mul__

    def shift_up(self, k: int) -> MarkerSeries:
        """Multiply by z^k, genuinely extending the order by k."""
        if k < 0:
            raise ValueError("shift_up needs k >= 0")
        return MarkerSeries(({},) * k + self.coeffs)

    def inverse_unit(self) -> MarkerSeries:
        """Inverse when the z^0 slice is a single invertible marker monomial."""
        head = self.coeffs[0]
        if len(head) != 1:
            raise DivisionByNonUnit("z^0 slice is not a marker monomial")
        (p0, c0), = head.items()
        inv0 = Q(1) / c0
        n = len(self.coeffs)
        out: list[dict[int, Fraction]] = [{-p0: inv0}]
        for m in range(1, n):
            acc: dict[int, Fraction] = {}
            for i in range(1, m + 1):
                di = self.coeffs[i]
                if not di:
                    continue
                dj = out[m - i]
                for pa, ca in di.items():
                    for pb, cb in dj.items():
                        p = pa + pb
                        acc[p] = acc.get(p, _ZERO) + ca * cb
            out.append({p - p0: -c * inv0 for p, c in acc.items() if c != 0})
        return MarkerSeries(out)
