"""Exact polynomial and field arithmetic used by every other module.

Two numeric layers live here, both float-free:

* QPoly      -- dense polynomials in one variable q with int coefficients,
                canonically normalized (no trailing zeros).  Every route
                produces integer polynomials, so any other coefficient type
                (Fraction, float, bool) is rejected at construction time.
* Root5      -- a + b*sqrt(5), the field Q(sqrt(5)), with int or Fraction
                parts.  Int parts stay ints under +, -, * and **: the
                closed moments and the explicit route's field bound
                (5 + sqrt(5))**k are integer pairs until a division.

Both take operands one way: _coerce makes an operand the class's own type or
None, the decorator _coerced answers None with NotImplemented, and the base
_Ring writes -, reflected - and ** (one square-and-multiply loop, _power) once.

QPoly.__mul__ is the schoolbook double loop.  The long polynomials of the
package are computed on Kronecker-packed integers (kronecker), so no
QPoly product is long.

Root5.__mul__ squares in three products, (a*a + 5*b*b, 2*a*b), when both
operands are the same object, as _power's squarings are: with four,
closed_moments("B", 800) takes 6% longer in process.

power_sums gives the exact sums of k**j * c_k (j = 0..top) that every
moment computation reads, and jet_at_one turns its first three sums into
the jet (P(1), P'(1), P''(1)/2): the coefficients of P(1 + e) modulo e**3.
"""

from __future__ import annotations

import sys
from operator import mul

from .errors import NonRationalResult, is_int


_INT_ONLY = frozenset((int,))


def _coerced(op):
    """op with other passed through self._coerce; NotImplemented if it gives None."""
    def wrapper(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else op(self, other)
    return wrapper


class _Ring:
    """-, reflected - and ** from a subclass's _coerce, +, unary - and *."""

    __slots__ = ()

    @_coerced
    def __sub__(self, other):
        return self + -other

    @_coerced
    def __rsub__(self, other):
        return other + -self

    def __pow__(self, n: int):
        return _power(self, n, self._coerce(1))


class QPoly(_Ring):
    """A polynomial in q with integer coefficients, lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        # One set of types for the common all-int case; anything else is
        # checked coefficient by coefficient, so an int subclass passes and
        # the first bool, float or Fraction is refused.
        if not set(map(type, cs)) <= _INT_ONLY:
            for c in cs:
                if not is_int(c):
                    raise TypeError(f"int coefficient required, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def q(cls) -> "QPoly":
        return cls((0, 1))

    @classmethod
    def term(cls, coeff, power: int) -> "QPoly":
        """coeff * q**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @_coerced
    def __eq__(self, other) -> bool:
        return self._coeffs == other._coeffs

    def __hash__(self):
        # A constant equals its int, so it hashes like it.
        if len(self._coeffs) <= 1:
            return hash(self._coeffs[0] if self._coeffs else 0)
        return hash(("QPoly", self._coeffs))

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self._coeffs))

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        return QPoly((other,)) if is_int(other) else None

    @_coerced
    def __add__(self, other):
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if is_int(other):
            if other == 0:
                return QPoly.zero()
            return QPoly(tuple(c * other for c in self._coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero:
            return self
        return QPoly((0,) * k + self._coeffs)

    def derivative(self) -> "QPoly":
        return QPoly(tuple(k * c for k, c in enumerate(self._coeffs))[1:])

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int, Fraction and Root5 arguments."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                qk = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    parts.append(qk)
                elif c == -1:
                    parts.append(f"-{qk}")
                else:
                    parts.append(f"{c}*{qk}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"QPoly({list(self._coeffs)!r})"


def _is_part(x) -> bool:
    """x is a Root5 part: an int (is_int) or a Fraction.  fractions is looked
    up, not imported, so int and QPoly arithmetic never loads it."""
    fractions = sys.modules.get("fractions")
    return is_int(x) or fractions is not None and isinstance(x, fractions.Fraction)


class Root5(_Ring):
    """An element a + b*sqrt(5) of Q(sqrt(5)), with int or Fraction parts.

    The parts keep the type they were given, so int parts stay ints under
    +, -, * and **.  A part that is a bool, or neither an int nor a
    Fraction, raises TypeError; a part alone stands for part + 0*sqrt(5).
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        for part in (a, b):
            if not _is_part(part):
                raise TypeError(f"Root5 part of type {type(part).__name__} refused")
        self.a = a
        self.b = b

    @classmethod
    def _of(cls, a, b):
        """Root5(a, b) without the part check, for parts an operation built
        from checked parts (int and Fraction are closed under +, -, *)."""
        new = object.__new__(cls)
        new.a = a
        new.b = b
        return new

    def _coerce(self, other):
        if type(other) is Root5:
            return other
        return Root5(other) if _is_part(other) else None

    def conjugate(self):
        return self._of(self.a, -self.b)

    def norm(self):
        return self.a * self.a - 5 * self.b * self.b

    @_coerced
    def __eq__(self, other) -> bool:
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # a + 0*sqrt(5) equals its part a, so it hashes like it.
        if self.b == 0:
            return hash(self.a)
        return hash(("Root5", self.a, self.b))

    def __neg__(self):
        return self._of(-self.a, -self.b)

    @_coerced
    def __add__(self, other):
        return self._of(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    @_coerced
    def __mul__(self, other):
        if other is self:
            a, b = self.a, self.b
            return self._of(a * a + b * b * 5, 2 * (a * b))
        return self._of(
            self.a * other.a + self.b * other.b * 5,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        if self.b != 0:
            raise NonRationalResult(f"sqrt(5) part did not cancel: {self}")
        return Fraction(self.a)

    @_coerced
    def __truediv__(self, other):
        from fractions import Fraction

        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(5))")
        scaled = self * other.conjugate()
        return Root5(Fraction(scaled.a, n), Fraction(scaled.b, n))

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, n: int) -> "Root5":
        if isinstance(n, int) and n < 0:
            return (Root5(1) / self) ** (-n)
        return super().__pow__(n)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 5 ** 0.5

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt(5)"

    def __repr__(self) -> str:
        return f"Root5({self.a!r}, {self.b!r})"


def _power(base, n: int, one):
    """base**n from one by left-to-right square-and-multiply, so every
    multiply step is by base itself; n is an int >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative int")
    result = one
    for bit in bin(n)[2:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


def power_sums(coeffs, top: int) -> list:
    """[sum of k**j * c_k over k, for j = 0..top].

    Only the small weights k**j are held in a list; each product with a
    coefficient is summed as it is made, so no copy of a large polynomial
    is built.
    """
    ks = range(len(coeffs))
    weights = [1] * len(coeffs)
    sums = [sum(coeffs)]
    for _ in range(top):
        weights = list(map(mul, weights, ks))
        sums.append(sum(map(mul, coeffs, weights)))
    return sums


def jet_at_one(coeffs) -> tuple:
    """(P(1), P'(1), P''(1)/2) of the polynomial with these coefficients."""
    s0, s1, s2 = power_sums(coeffs, 2)
    return s0, s1, (s2 - s1) // 2
