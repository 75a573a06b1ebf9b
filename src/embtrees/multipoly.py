"""Sparse exact multivariate polynomials and rational-function pairs.

Equality of rational functions is decided by cross-multiplication
(a/b = c/d iff a*d - c*b = 0), which is an exact identity proof over the
rationals; no gcd normalization is ever attempted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByNonUnit, VariableMismatch
from .series import Q, Series, as_fraction

_ZERO = Q(0)


class MultiPoly:
    __slots__ = ("variables", "terms")

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
        self.terms = clean

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
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
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

    def __add__(self, other) -> MultiPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in rhs.terms.items():
            out[exps] = out.get(exps, _ZERO) + c
        return MultiPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MultiPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> MultiPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            return MultiPoly(
                self.variables, {e: c * q for e, c in self.terms.items()}
            )
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in rhs.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, _ZERO) + ca * cb
        return MultiPoly(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MultiPoly:
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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


class RationalFunction:
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
        return (self.num * other.den - other.num * self.den).is_zero()

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

    def __add__(self, other) -> RationalFunction:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalFunction(
            self.num * rhs.den + rhs.num * self.den, self.den * rhs.den
        )

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> RationalFunction:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> RationalFunction:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

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
        if rhs.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * rhs.den, self.den * rhs.num)

    def __pow__(self, k: int) -> RationalFunction:
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num**k, self.den**k)

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
