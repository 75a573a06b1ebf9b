"""Truncated formal power series with exact rational coefficients.

A :class:`Series` holds the coefficients of a power series modulo z^N,
where N = ``order``.  All arithmetic follows one truncation rule: the
result order is the minimum of the operand orders, and no operation ever
extends precision silently.

Representation.  A series is stored as one positive common denominator
``d`` and a tuple of integer numerators ``(a_0, ..., a_{N-1})``, so the
coefficient of z^n is a_n / d.  Every series is normalised so that
gcd(a_0, ..., a_{N-1}, d) = 1 (the zero series has d = 1); two series are
therefore equal exactly when their numerator tuples and denominators are,
and ``==`` and ``hash`` are structural.

All arithmetic runs on the integers:

* products use Kronecker substitution: each operand is packed into one
  big integer with a digit per coefficient, the two integers are
  multiplied once, and the signed digits of the low half are unpacked
  (Harvey, arXiv:0712.4046).  Products with few nonzero terms use the
  schoolbook loop instead;
* division by a unit b(z) rescales z by b_0 so that the divisor has
  constant term 1 and an integer inverse, then runs the integer
  recurrence;
* the square root rescales z by 4d, which keeps its recurrence in the
  integers.

At the boundary the series still speaks :class:`fractions.Fraction`:
``coeffs``, indexing, iteration and the constructor take and give
Fractions (built on first use and kept), so every computation in the
package stays exact.  ``ratios`` gives reduced integer pairs and
``from_ratios`` takes integer pairs, without building Fractions.

:class:`ExactRing` defines ``+``, ``-`` and ``**`` once for every exact
ring of the package, over each ring's coercion and layout-specific sum;
``over_lcm``, ``reduced`` and ``common_den`` are the integer steps those
rings share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul, sub

from .counts import COUNTS
from .errors import DivisionByNonUnit, NonUnitConstantTerm

Q = Fraction

_ZERO = Q(0)
_ONE = Q(1)

# Products whose schoolbook cost (nonzero terms of one operand times the
# length of the other) is at most this many coefficient products skip
# Kronecker packing; measured crossover on CPython 3.11.
_SCHOOLBOOK_MAX = 48


def as_fraction(value) -> Fraction:
    """Coerce an int, string like ``"3/7"``, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        return Q(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_sqrt(q: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational; raises otherwise."""
    if q < 0:
        raise NonUnitConstantTerm(f"{q} is negative, no rational square root")
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        raise NonUnitConstantTerm(f"{q} is not the square of a rational")
    return Q(rn, rd)


def _fit(terms: list, order: int | None, fill) -> list:
    """``terms`` cut to ``order``, or padded with ``fill`` up to it; never empty."""
    if order is not None:
        if order < 1:
            raise ValueError("series order must be positive")
        terms = terms[:order] + [fill] * (order - len(terms))
    if not terms:
        raise ValueError("series needs at least one coefficient")
    return terms


def over_lcm(pairs) -> tuple[list[int], int]:
    """The pairs' numerators lifted over L, the lcm of their denominators, and L."""
    den = lcm(*[q for _, q in pairs])
    if den == 1:
        return [p for p, _ in pairs], 1
    return [p * (den // q) for p, q in pairs], den


def reduced(nums, den: int) -> tuple:
    """Integer numerators over a nonzero denominator, made positive and coprime to them."""
    if den < 0:
        nums, den = [-c for c in nums], -den
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    return nums, den


def common_den(da: int, db: int) -> tuple[int, int, int]:
    """(L, L/da, L/db) with L the lcm of two positive denominators."""
    if da == db:
        return da, 1, 1
    den = da // gcd(da, db) * db
    return den, den // da, den // db


class ExactRing:
    """``+``, ``-`` and ``**`` for the package's exact rings.

    A ring supplies ``_coerce`` (an operand as one of its elements, or
    None), ``_combine(rhs, op)`` for op in (add, sub) on its own layout,
    and ``_reciprocal`` for negative powers.
    """

    __slots__ = ()

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._combine(rhs, add)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._combine(rhs, sub)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs._combine(self, sub)

    def __pow__(self, k: int):
        """Square and multiply; a negative k powers the reciprocal."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self._reciprocal() ** (-k)
        result = self._coerce(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result


class Series(ExactRing):
    """Formal power series known modulo z^order."""

    __slots__ = ("_num", "_den", "_fractions")

    def __init__(self, coeffs, order: int | None = None):
        cs = [c if isinstance(c, (int, Fraction)) else as_fraction(c) for c in coeffs]
        # the lcm of reduced denominators is already coprime to the numerators
        nums, self._den = over_lcm([c.as_integer_ratio() for c in _fit(cs, order, 0)])
        self._num = tuple(nums)
        self._fractions = None

    @classmethod
    def _raw(cls, nums: tuple, den: int) -> Series:
        """Wrap numerators and a denominator that are already normalised."""
        s = object.__new__(cls)
        s._num = nums
        s._den = den
        s._fractions = None
        return s

    @classmethod
    def _normed(cls, nums, den: int) -> Series:
        """Normalise integer numerators over a nonzero denominator."""
        if den != 1:
            nums, den = reduced(nums, den)
        return cls._raw(tuple(nums), den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls([_ZERO], order)

    @classmethod
    def one(cls, order: int) -> Series:
        return cls([_ONE], order)

    @classmethod
    def constant(cls, value, order: int) -> Series:
        return cls([as_fraction(value)], order)

    @classmethod
    def z(cls, order: int) -> Series:
        """The series z itself."""
        return cls([_ZERO, _ONE], order)

    @classmethod
    def from_ratios(cls, pairs, order: int | None = None) -> Series:
        """Series from (numerator, denominator) integer pairs, denominators positive."""
        nums, den = over_lcm(_fit(list(pairs), order, (0, 1)))
        return cls._normed(nums, den)

    # -- basic accessors ----------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions."""
        fr = self._fractions
        if fr is None:
            d = self._den
            if d == 1:
                fr = tuple([Fraction(c) for c in self._num])
            else:
                fr = tuple([Fraction(c, d) for c in self._num])
            self._fractions = fr
        return fr

    def ratios(self) -> list[tuple[int, int]]:
        """The coefficients as reduced (numerator, denominator) integer pairs."""
        d = self._den
        if d == 1:
            return [(c, 1) for c in self._num]
        out = []
        for c in self._num:
            g = gcd(c, d)
            out.append((c // g, d // g))
        return out

    @property
    def order(self) -> int:
        return len(self._num)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if zero mod z^N."""
        for n, c in enumerate(self._num):
            if c:
                return n
        return None

    def truncate(self, order: int) -> Series:
        if order > len(self._num):
            raise ValueError("cannot extend precision by truncation")
        if order < 1:
            raise ValueError("series needs at least one coefficient")
        return Series._normed(self._num[:order], self._den)

    def with_order(self, order: int) -> Series:
        """Truncate to ``order``, or pad with zero coefficients up to it.

        Padding claims precision the series does not have; it is for
        iterations such as Newton's, whose next step recomputes the padded
        coefficients.
        """
        if order <= len(self._num):
            return self.truncate(order)
        return Series._raw(self._num + (0,) * (order - len(self._num)), self._den)

    def matches(self, other: Series) -> bool:
        """Equality at the minimum of the two orders (the comparable range)."""
        n = min(len(self._num), len(other._num))
        da, db = self._den, other._den
        a, b = self._num[:n], other._num[:n]
        if da == db:
            return a == b
        return all(x * db == y * da for x, y in zip(a, b))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self._num) > 8 else ""
        return f"Series(order={len(self._num)}, [{head}{tail}])"

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> Series | None:
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.constant(other, len(self._num))
        return None

    def _combine(self, rhs: Series, op) -> Series:
        """self op rhs for op in (add, sub), coefficientwise."""
        n = min(len(self._num), len(rhs._num))
        den, fa, fb = common_den(self._den, rhs._den)
        if fa == fb == 1:
            nums = list(map(op, self._num[:n], rhs._num[:n]))
        else:
            nums = [op(x * fa, y * fb) for x, y in zip(self._num[:n], rhs._num[:n])]
        return Series._normed(nums, den)

    def __neg__(self) -> Series:
        return Series._raw(tuple([-c for c in self._num]), self._den)

    def _scale(self, q) -> Series:
        """Multiply by the rational scalar q."""
        p, d = q.numerator, q.denominator
        nums = [c * p for c in self._num]
        return Series._normed(nums, self._den * d)

    def __mul__(self, other) -> Series:
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        COUNTS["series.mul"] += 1
        n = min(len(self._num), len(other._num))
        nums = _mul_ints(self._num, other._num, n)
        return Series._normed(nums, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Series:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _divide(self, rhs)

    def __rtruediv__(self, other) -> Series:
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return _divide(lhs, self)

    def _reciprocal(self) -> Series:
        return _divide(Series.one(len(self._num)), self)

    # -- z-power shifts ------------------------------------------------

    def shift_up(self, k: int) -> Series:
        """Multiply by z^k.  Precision genuinely extends to order+k."""
        if k < 0:
            raise ValueError("shift_up needs k >= 0")
        return Series._raw((0,) * k + self._num, self._den)

    def shift_down(self, k: int) -> Series:
        """Divide by z^k; requires valuation >= k.  Order shrinks by k."""
        if k == 0:
            return self
        if any(self._num[:k]):
            raise DivisionByNonUnit(f"valuation below {k}, cannot divide by z^{k}")
        if len(self._num) <= k:
            raise DivisionByNonUnit("no precision left after cancelling valuation")
        return Series._raw(self._num[k:], self._den)

    # -- analytic-style operations ------------------------------------

    def sqrt(self) -> Series:
        """Square root of a series with constant term 1 (branch with +1).

        With a = A/d, the series u(z) = sqrt(a)(4dz) has integer
        coefficients, every one after the first even, so its recurrence
        2u_m = [z^m]a(4dz) - sum u_i u_(m-i) stays in the integers.
        """
        nums, d = self._num, self._den
        if nums[0] != d:
            raise NonUnitConstantTerm(f"constant term {self.coeffs[0]} != 1")
        n = len(nums)
        scale = 4 * d
        u = [1]
        power = 4  # 4^m d^(m-1), the rescaling of a's z^m numerator
        for m in range(1, n):
            # sum of u_i u_(m-i) over 0 < i < m, each pair once
            total = 2 * sum(map(mul, u[1:(m + 1) // 2], u[m - 1:m // 2:-1]))
            if m % 2 == 0:
                total += u[m // 2] ** 2
            u.append((nums[m] * power - total) >> 1)
            power *= scale
        # s_m = u_m / (4d)^m over the common denominator (4d)^(n-1)
        out = [0] * n
        factor = 1
        for m in range(n - 1, -1, -1):
            out[m] = u[m] * factor
            factor *= scale
        return Series._normed(out, factor // scale)


def _mul_ints(a: tuple, b: tuple, n: int) -> list[int]:
    """The first n coefficients of the product of integer polynomials a and b."""
    va = next((i for i, c in enumerate(a) if c), None)
    vb = next((i for i, c in enumerate(b) if c), None)
    if va is None or vb is None or va + vb >= n:
        return [0] * n
    m = n - va - vb
    a = _trim(a[va:va + m])
    b = _trim(b[vb:vb + m])
    if len(a) > len(b):
        a, b = b, a
    if (len(a) - a.count(0)) * len(b) <= _SCHOOLBOOK_MAX:
        COUNTS["mul_ints.schoolbook"] += 1
        body = _mul_schoolbook(a, b, m)
    else:
        COUNTS["mul_ints.kronecker"] += 1
        body = _mul_kronecker(a, b, min(m, len(a) + len(b) - 1))
    body += [0] * (m - len(body))
    return [0] * (va + vb) + body if va + vb else body


def _trim(cs: tuple) -> tuple:
    """Drop trailing zero coefficients."""
    end = len(cs)
    while end > 1 and not cs[end - 1]:
        end -= 1
    return cs[:end] if end < len(cs) else cs


def _mul_schoolbook(a, b, m: int) -> list[int]:
    out = [0] * min(m, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: m - i]):
                out[i + j] += ai * bj
    return out


def _offset(width: int, n: int) -> int:
    """The integer whose n digits of ``width`` bytes are each 2^(8*width - 1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _mul_kronecker(a, b, m: int) -> list[int]:
    """The first m coefficients of a*b through one big-integer product.

    Each coefficient becomes a digit of ``width`` bytes, wide enough that
    every product coefficient fits as a signed digit.  Digits are packed
    with an offset of half their range, so that they are non-negative and
    their bytes can simply be joined; the unpacking adds the same offset.
    """
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + len(a).bit_length() + 1)
    width = (bits + 7) >> 3
    half = 1 << (8 * width - 1)
    to_bytes, from_bytes = int.to_bytes, int.from_bytes
    pa = from_bytes(b"".join([to_bytes(c + half, width, "little") for c in a]), "little")
    pb = from_bytes(b"".join([to_bytes(c + half, width, "little") for c in b]), "little")
    product = (pa - _offset(width, len(a))) * (pb - _offset(width, len(b)))
    # the low m digits, as a signed number, plus the offset: each digit of
    # the result is its coefficient plus half, in [0, 2*half)
    size = width * m
    low = (product + _offset(width, m)) & ((1 << (8 * size)) - 1)
    buf = low.to_bytes(size, "little")
    return [from_bytes(buf[i:i + width], "little") - half for i in range(0, size, width)]


def _quotient_monic(a: tuple, c: tuple, n: int) -> list[int]:
    """The first n coefficients of a/c for integer series, c_0 = 1.

    The recurrence's inner sums run in C and multiply the divisor's small
    coefficients into the growing quotient.  Newton inversion with
    precision doubling, all through Kronecker products, measured slower
    at every order up to 400, because Python's big integers multiply by
    Karatsuba and the inverse's coefficients grow with the order.
    """
    tail = _trim(c[:n])[1:]
    out = [a[0]]
    for m in range(1, n):
        out.append(a[m] - sum(map(mul, tail, out[m - 1::-1])))
    return out


def _divide(a: Series, b: Series) -> Series:
    """a / b with valuation cancellation; order shrinks by the cancelled power."""
    vb = b.valuation()
    if vb is None:
        raise DivisionByNonUnit("division by a series that is zero to its order")
    if vb > 0:
        va = a.valuation()
        if va is not None and va < vb:
            raise DivisionByNonUnit(
                f"numerator valuation {va} below denominator valuation {vb}"
            )
        if min(len(a._num), len(b._num)) <= vb:
            raise DivisionByNonUnit("no precision left after cancelling valuation")
    n = min(len(a._num), len(b._num)) - vb
    an, bn = a._num[vb:vb + n], b._num[vb:vb + n]
    # (an/da) / (bn/db) = (db/da) * an/bn.  Rescale z -> s*z with s = bn_0:
    # bn(sz)/s has constant term 1 and an integer inverse, and
    # r = an(sz)/(bn(sz)/s) = s * (an/bn)(sz), so [z^i] an/bn = r_i / s^(i+1)
    s = bn[0]
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * s)
    monic = tuple([1] + [bn[i] * powers[i - 1] for i in range(1, n)])
    r = _quotient_monic(tuple(map(mul, an, powers)), monic, n)
    nums = [r[i] * powers[n - 1 - i] * b._den for i in range(n)]
    return Series._normed(nums, powers[n] * a._den)


def geometric(ratio: Series) -> Series:
    """1/(1 - ratio) for a ratio with zero constant term."""
    one = Series.one(ratio.order)
    return one / (one - ratio)
