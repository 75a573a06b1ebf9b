"""Bivariate series: power series in z with Laurent-polynomial marker data.

A :class:`MarkerSeries` stores, for each power z^n below its order, a
finite-support Laurent polynomial in one marker variable (an endpoint
level, a free parameter, ...).  The marker exponent may be negative; the
z exponent may not.  The same min-order truncation rule as
:class:`~embtrees.series.Series` applies.

Representation.  A marker series of order N is a dense integer grid over
one positive common denominator ``d``: the marker exponents run over a
window ``lo .. lo + width - 1`` shared by every z-slice, and the
numerator of the coefficient of z^n m^p sits at position
``n * width + (p - lo)`` of one flat tuple.  The window is tight (its
first and last columns hold a nonzero numerator; the zero series has
width 0) and gcd(numerators, d) = 1, so ``==`` and ``hash`` are
structural.

Products flatten both operands into one integer polynomial each, mapping
(z^n, m^p) to t^(n*S + p - lo) with S the product's marker span (the two
widths added, less one), so no marker exponent carries into the next
z-slice; the integer product is the series core's ``_mul_ints``, whose
schoolbook loop skips the zeros of the shorter operand.  Sums and scalars
also run on the integers, and ``+``, ``-``, ``**`` come from
``ExactRing``.  A marker series is never inverted: a negative power
raises ``ValueError``.  ``coeffs`` still gives a tuple of dicts {marker
exponent: Fraction}, built on first use and kept.
"""

from __future__ import annotations

from fractions import Fraction

from .counts import COUNTS
from .series import ExactRing, Series, _fit, _mul_ints, as_fraction, common_den, over_lcm, reduced


class MarkerSeries(ExactRing):
    __slots__ = ("_order", "_lo", "_width", "_num", "_den", "_fractions")

    def __init__(self, coeffs, order: int | None = None):
        rows = [
            {p: c if isinstance(c, (int, Fraction)) else as_fraction(c)
             for p, c in dict(d).items() if c != 0}
            for d in coeffs
        ]
        rows = _fit(rows, order, {})
        keys = [p for d in rows for p in d]
        if not keys:
            self._set(len(rows), 0, 0, (), 1)
            return
        lo = min(keys)
        width = max(keys) - lo + 1
        lifted, den = over_lcm([c.as_integer_ratio() for d in rows for c in d.values()])
        nums = [0] * (len(rows) * width)
        cells = (n * width - lo + p for n, d in enumerate(rows) for p in d)
        for cell, c in zip(cells, lifted):
            nums[cell] = c
        self._set(len(rows), lo, width, tuple(nums), den)

    def _set(self, order: int, lo: int, width: int, nums: tuple, den: int) -> None:
        self._order = order
        self._lo = lo
        self._width = width
        self._num = nums
        self._den = den
        self._fractions = None

    @classmethod
    def _raw(cls, order: int, lo: int, width: int, nums: tuple, den: int) -> MarkerSeries:
        """Wrap a grid that is already tight and normalised."""
        s = object.__new__(cls)
        s._set(order, lo, width, nums, den)
        return s

    @classmethod
    def _normed(cls, order: int, lo: int, width: int, nums, den: int) -> MarkerSeries:
        """Trim the marker window to its nonzero columns and reduce by the gcd."""
        first = next((k for k in range(width) if any(nums[k::width])), None)
        if first is None:
            return cls._raw(order, 0, 0, (), 1)
        last = next(k for k in range(width - 1, first - 1, -1) if any(nums[k::width]))
        if first or last < width - 1:
            nums = [c for s in range(0, order * width, width)
                    for c in nums[s + first:s + last + 1]]
            lo, width = lo + first, last - first + 1
        nums, den = reduced(nums, den)
        return cls._raw(order, lo, width, tuple(nums), den)

    def _grid(self, lo: int, width: int, n: int) -> list[int]:
        """The first n z-slices laid out on the wider window lo .. lo+width-1."""
        w, nums = self._width, self._num
        if w == width and self._lo == lo:
            return list(nums[:n * w])
        out = [0] * (n * width)
        if w == 0:
            return out
        off = self._lo - lo
        for k in range(w):
            out[off + k::width] = nums[k:n * w:w]
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> MarkerSeries:
        return cls([{}], order)

    @classmethod
    def one(cls, order: int) -> MarkerSeries:
        return cls.marker_power(0, order)

    @classmethod
    def from_series(cls, s: Series) -> MarkerSeries:
        return cls.series_times_marker(s, 0)

    @classmethod
    def marker_power(cls, power: int, order: int) -> MarkerSeries:
        """The monomial m^power as a z-constant."""
        if order < 1:
            raise ValueError("marker series needs positive order")
        return cls._raw(order, power, 1, (1,) + (0,) * (order - 1), 1)

    @classmethod
    def series_times_marker(cls, s: Series, power: int) -> MarkerSeries:
        """s(z) * m^power."""
        if not any(s._num):
            return cls._raw(len(s._num), 0, 0, (), 1)
        return cls._raw(len(s._num), power, 1, s._num, s._den)

    # -- accessors ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[dict[int, Fraction], ...]:
        """The z-slices as dicts {marker exponent: Fraction}."""
        fr = self._fractions
        if fr is None:
            w, lo, d, nums = self._width, self._lo, self._den, self._num
            if w == 0:
                fr = tuple({} for _ in range(self._order))
            else:
                fr = tuple(
                    {lo + k: Fraction(c, d) for k, c in enumerate(nums[s:s + w]) if c}
                    for s in range(0, len(nums), w)
                )
            self._fractions = fr
        return fr

    @property
    def order(self) -> int:
        return self._order

    def is_zero(self) -> bool:
        return self._width == 0

    def support(self, n: int) -> tuple[int, int] | None:
        """(lo, hi) marker exponents at z^n, or None when that slice is 0."""
        n = range(self._order)[n]
        w = self._width
        row = self._num[n * w:(n + 1) * w]
        first = next((k for k, c in enumerate(row) if c), None)
        if first is None:
            return None
        last = next(k for k in range(w - 1, -1, -1) if row[k])
        return self._lo + first, self._lo + last

    def extract(self, power: int) -> Series:
        """The z-series of marker-exponent == power coefficients."""
        k = power - self._lo
        if not 0 <= k < self._width:
            return Series._raw((0,) * self._order, 1)
        return Series._normed(self._num[k::self._width], self._den)

    def at_one(self) -> Series:
        """Specialize the marker to 1."""
        w, nums = self._width, self._num
        if w == 0:
            return Series._raw((0,) * self._order, 1)
        return Series._normed([sum(nums[s:s + w]) for s in range(0, len(nums), w)],
                              self._den)

    def truncate(self, order: int) -> MarkerSeries:
        if order > self._order:
            raise ValueError("cannot extend precision by truncation")
        if order < 1:
            raise ValueError("marker series needs positive order")
        w = self._width
        return MarkerSeries._normed(order, self._lo, w, self._num[:order * w], self._den)

    def shift_marker(self, k: int) -> MarkerSeries:
        """Multiply by m^k."""
        if self._width == 0:
            return self
        return MarkerSeries._raw(self._order, self._lo + k, self._width, self._num, self._den)

    def matches(self, other: MarkerSeries) -> bool:
        n = min(self._order, other._order)
        return self.truncate(n) == other.truncate(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkerSeries):
            return NotImplemented
        return (self._order == other._order and self._lo == other._lo
                and self._width == other._width and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._order, self._lo, self._width, self._num, self._den))

    def __repr__(self) -> str:
        return f"MarkerSeries(order={self._order})"

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> MarkerSeries | None:
        if isinstance(other, MarkerSeries):
            return other
        if isinstance(other, Series):
            return MarkerSeries.from_series(other)
        if isinstance(other, (int, Fraction)):
            return MarkerSeries([{0: as_fraction(other)}], self._order)
        return None

    def _combine(self, rhs: MarkerSeries, op) -> MarkerSeries:
        """self op rhs for op in (add, sub), slice by slice."""
        n = min(self._order, rhs._order)
        spans = [(s._lo, s._lo + s._width) for s in (self, rhs) if s._width]
        if not spans:
            return MarkerSeries._raw(n, 0, 0, (), 1)
        lo = min(a for a, _ in spans)
        width = max(b for _, b in spans) - lo
        den, fa, fb = common_den(self._den, rhs._den)
        a, b = self._grid(lo, width, n), rhs._grid(lo, width, n)
        if fa != 1:
            a = [c * fa for c in a]
        if fb != 1:
            b = [c * fb for c in b]
        return MarkerSeries._normed(n, lo, width, list(map(op, a, b)), den)

    def __neg__(self) -> MarkerSeries:
        return MarkerSeries._raw(self._order, self._lo, self._width,
                                 tuple([-c for c in self._num]), self._den)

    def __mul__(self, other) -> MarkerSeries:
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            if q == 0:
                return MarkerSeries._raw(self._order, 0, 0, (), 1)
            return MarkerSeries._normed(self._order, self._lo, self._width,
                                        [c * q.numerator for c in self._num],
                                        self._den * q.denominator)
        if isinstance(other, Series):
            return self._times_series(other)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self._order, rhs._order)
        if self._width == 0 or rhs._width == 0:
            return MarkerSeries._raw(n, 0, 0, (), 1)
        COUNTS["marker.mul"] += 1
        if min(self._width, rhs._width) <= 4:
            COUNTS["marker.mul.narrow"] += 1
        span = self._width + rhs._width - 1
        nums = _mul_ints(self._grid(self._lo, span, n), rhs._grid(rhs._lo, span, n),
                         n * span)
        return MarkerSeries._normed(n, self._lo + rhs._lo, span, nums,
                                    self._den * rhs._den)

    __rmul__ = __mul__

    def _times_series(self, s: Series) -> MarkerSeries:
        """The product with a z-series: one series product per marker column."""
        n = min(self._order, len(s._num))
        w = self._width
        nums = [0] * (n * w)
        for k in range(w):
            nums[k::w] = _mul_ints(self._num[k:n * w:w], s._num, n)
        return MarkerSeries._normed(n, self._lo, w, nums, self._den * s._den)
