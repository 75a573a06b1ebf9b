"""Sparse exact multivariate polynomials and rational-function pairs.

Equality of rational functions is decided by cross-multiplication
(a/b = c/d iff a*d - c*b = 0), which is an exact identity proof over the
rationals; no gcd normalization is ever attempted.

Representation.  A :class:`MultiPoly` holds one positive common
denominator ``d`` and a dict from exponent vectors to nonzero integer
numerators, normalised so that gcd(numerators, d) = 1; ``==`` and
``hash`` are structural.  A product packs each operand into one integer
polynomial by mixed-radix exponent packing: with lo_v the smaller
exponent of variable v in each operand, the digit of v is e_v - lo_v and
its radix is the sum of the two operands' exponent ranges plus one, so
no digit of the product carries.  The series core's ``_mul_ints``
multiplies the packed polynomials (schoolbook or Kronecker); sparse
multivariate products, whose box of exponents has more cells than the
operands have pairs of terms, are multiplied pair by pair on the packed
exponents instead.  ``terms`` still gives the dict {exponent vector:
Fraction}, built on first use.  Both classes take ``+``, ``-``, ``**`` from
``ExactRing``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count

from .counts import COUNTS
from .errors import DivisionByNonUnit, VariableMismatch
from .series import ExactRing, Q, Series, _mul_ints, as_fraction, common_den, over_lcm, reduced


class MultiPoly(ExactRing):
    __slots__ = ("variables", "_num", "_den", "_terms")

    def __init__(self, variables, terms: dict | None = None):
        self.variables = tuple(variables)
        nv = len(self.variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nv:
                raise VariableMismatch(
                    f"exponent vector {exps} does not match {self.variables}"
                )
            q = as_fraction(c)
            if q != 0:
                clean[tuple(exps)] = q
        # the lcm of reduced denominators is already coprime to the numerators
        nums, self._den = over_lcm([q.as_integer_ratio() for q in clean.values()])
        self._num = dict(zip(clean, nums))
        self._terms = None

    @classmethod
    def _raw(cls, variables: tuple, nums: dict, den: int) -> MultiPoly:
        """Wrap nonzero integer numerators and a denominator already normalised."""
        p = object.__new__(cls)
        p.variables = variables
        p._num = nums
        p._den = den
        p._terms = None
        return p

    @classmethod
    def _normed(cls, variables: tuple, nums: dict, den: int) -> MultiPoly:
        """Drop zero numerators and reduce by the gcd with a nonzero denominator."""
        nums = {e: c for e, c in nums.items() if c}
        if not nums:
            return cls._raw(variables, nums, 1)
        lifted, den = reduced(list(nums.values()), den)
        return cls._raw(variables, dict(zip(nums, lifted)), den)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as a dict {exponent vector: Fraction}."""
        fr = self._terms
        if fr is None:
            d = self._den
            fr = self._terms = {e: Fraction(c, d) for e, c in self._num.items()}
        return fr

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables) -> MultiPoly:
        return cls(variables, {})

    @classmethod
    def const(cls, variables, value) -> MultiPoly:
        v = tuple(variables)
        return cls(v, {(0,) * len(v): as_fraction(value)})

    @classmethod
    def var(cls, variables, name: str) -> MultiPoly:
        v = tuple(variables)
        exps = [0] * len(v)
        exps[v.index(name)] = 1
        return cls(v, {tuple(exps): Q(1)})

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> MultiPoly:
        return cls(tuple(variables), {tuple(exps): as_fraction(coeff)})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.variables == other.variables and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self._num.items()), self._den))

    def __repr__(self) -> str:
        if not self._num:
            return "MultiPoly(0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{v}^{e}" for v, e in zip(self.variables, exps) if e
            )
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return "MultiPoly(" + " + ".join(bits[:6]) + (" + ..." if len(bits) > 6 else "") + ")"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> MultiPoly | None:
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise VariableMismatch(
                    f"{other.variables} does not match {self.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.variables, other)
        return None

    def _combine(self, rhs: MultiPoly, op) -> MultiPoly:
        """self op rhs for op in (add, sub), over the lcm of the two denominators."""
        den, fa, fb = common_den(self._den, rhs._den)
        out = dict(self._num) if fa == 1 else {e: c * fa for e, c in self._num.items()}
        for e, c in rhs._num.items():
            out[e] = op(out.get(e, 0), c * fb)
        return MultiPoly._normed(self.variables, out, den)

    def __neg__(self) -> MultiPoly:
        return MultiPoly._raw(self.variables, {e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            return MultiPoly._normed(
                self.variables, {e: c * q.numerator for e, c in self._num.items()},
                self._den * q.denominator,
            )
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        COUNTS["multipoly.mul"] += 1
        if not self._num or not rhs._num:
            return MultiPoly._raw(self.variables, {}, 1)
        return MultiPoly._normed(
            self.variables, _mul_packed(self._num, rhs._num), self._den * rhs._den
        )

    __rmul__ = __mul__

    def _reciprocal(self) -> MultiPoly:
        raise ValueError("polynomial powers must be non-negative integers")

    # -- evaluation -------------------------------------------------------

    def eval_series(self, assignments: dict[str, Series]) -> Series:
        """Substitute a series for every variable."""
        missing = [v for v in self.variables if v not in assignments]
        if missing:
            raise VariableMismatch(f"no assignment for {missing}")
        order = min(assignments[v].order for v in self.variables) if self.variables else None
        if order is None:
            raise VariableMismatch("polynomial has no variables to substitute")
        powers: dict[str, list[Series]] = {
            v: [Series.one(order)] for v in self.variables
        }

        def power(v: str, k: int) -> Series:
            tab = powers[v]
            while len(tab) <= k:
                tab.append(tab[-1] * assignments[v])
            return tab[k]

        acc = Series.zero(order)
        for exps, c in self.terms.items():
            term = Series.constant(c, order)
            for v, e in zip(self.variables, exps):
                if e:
                    term = term * power(v, e)
            acc = acc + term
        return acc


def _mul_packed(a: dict, b: dict) -> dict:
    """Product of nonzero integer polynomials {exponent vector: int}.

    Each operand becomes one integer polynomial whose exponent is its
    exponent vector in mixed radix: digit e_v - lo_v with lo_v the
    operand's smallest exponent of variable v, and radix r_v the sum of
    the two operands' exponent ranges of v plus one, so that the digits of
    the product's exponents never carry.  When the product's box of
    exponents holds more cells than there are pairs of terms, the packed
    terms are multiplied pair by pair into a dict instead.
    """
    ea, eb = list(a), list(b)
    lo_a, hi_a = [min(col) for col in zip(*ea)], [max(col) for col in zip(*ea)]
    lo_b, hi_b = [min(col) for col in zip(*eb)], [max(col) for col in zip(*eb)]
    radices = [ha - la + hb - lb + 1 for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b)]
    lo = [la + lb for la, lb in zip(lo_a, lo_b)]
    if len(radices) == 1:
        (la,), (lb,) = lo_a, lo_b
        fa = [0] * (hi_a[0] - la + 1)
        for (e,), c in a.items():
            fa[e - la] = c
        fb = [0] * (hi_b[0] - lb + 1)
        for (e,), c in b.items():
            fb[e - lb] = c
        prod = _mul_ints(fa, fb, len(fa) + len(fb) - 1)
        base = lo[0]
        return {(base + i,): c for i, c in zip(compress(count(), prod), filter(None, prod))}
    places = []
    place = 1
    for r in radices:
        places.append(place)
        place *= r

    def pack(terms: dict, low: list) -> dict[int, int]:
        return {sum((x - l) * p for x, l, p in zip(e, low, places)): c
                for e, c in terms.items()}

    pa, pb = pack(a, lo_a), pack(b, lo_b)
    if place > len(a) * len(b):
        # the product's box has more digits than there are term products,
        # so most of a dense packing would be zeros: multiply term by term
        acc: dict[int, int] = {}
        get = acc.get
        for ia, ca in pa.items():
            for ib, cb in pb.items():
                k = ia + ib
                acc[k] = get(k, 0) + ca * cb
        items = acc.items()
    else:
        fa = [0] * (max(pa) + 1)
        for k, c in pa.items():
            fa[k] = c
        fb = [0] * (max(pb) + 1)
        for k, c in pb.items():
            fb[k] = c
        prod = _mul_ints(fa, fb, len(fa) + len(fb) - 1)
        items = zip(compress(count(), prod), filter(None, prod))
    out = {}
    for idx, c in items:
        if not c:
            continue
        exps = []
        for r, base in zip(radices, lo):
            idx, digit = divmod(idx, r)
            exps.append(base + digit)
        out[tuple(exps)] = c
    return out


class RationalFunction(ExactRing):
    """Quotient pair of polynomials over a shared variable list."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.variables, 1)
        if num.variables != den.variables:
            raise VariableMismatch("numerator/denominator variable lists differ")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    def equals(self, other: RationalFunction) -> bool:
        """Exact identity test by cross-multiplication."""
        return self.num * other.den == other.num * self.den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> RationalFunction | None:
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(MultiPoly.const(self.variables, other))
        return None

    def _combine(self, rhs: RationalFunction, op) -> RationalFunction:
        """self op rhs for op in (add, sub), over the product of the denominators."""
        return RationalFunction(op(self.num * rhs.den, rhs.num * self.den), self.den * rhs.den)

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other) -> RationalFunction:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalFunction(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RationalFunction:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs._reciprocal()

    def _reciprocal(self) -> RationalFunction:
        return RationalFunction(self.den, self.num)

    def eval_series(self, assignments: dict[str, Series]) -> Series:
        """Substitute series for the variables, then divide."""
        num = self.num.eval_series(assignments)
        den = self.den.eval_series(assignments)
        if den.is_zero():
            raise DivisionByNonUnit("denominator evaluates to zero series")
        return num / den

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r} / {self.den!r})"


def rf_equal(a: RationalFunction, b: RationalFunction) -> bool:
    return a.equals(b)
