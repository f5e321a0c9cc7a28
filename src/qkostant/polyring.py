"""Exact polynomial and field arithmetic used by every other module.

Two numeric layers live here, both float-free:

* QPoly      -- dense polynomials in one variable q with int coefficients,
                canonically normalized (no trailing zeros).  Every route
                produces integer polynomials, so any other coefficient type
                (Fraction, float, bool) is rejected at construction time.
* Surd       -- a + b*s with s*s = D: one conjugate-pair arithmetic whose
                parts keep their type (int, Fraction or QPoly).  Root5 is
                its D = 5 subclass, the field Q(sqrt(5)); closedform's
                explicit route uses D = q**2 + 4.  QPoly and Surd powers
                share one square-and-multiply loop, _power.

unpack_fields is the one Kronecker decoder shared by the packed routes: a
polynomial with coefficients in [0, 2**W) is held as its value at q = 2**W,
one W-bit field per coefficient.

power_sums gives the exact sums of k**j * c_k (j = 0..top) that every
moment computation reads, and jet_at_one turns its first three sums into
the jet (P(1), P'(1), P''(1)/2): the coefficients of P(1 + e) modulo e**3.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import NonRationalResult


def _is_int(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool)


def _canon_scalar(c):
    """Validate one coefficient: an int that is not a bool."""
    if isinstance(c, int) and not isinstance(c, bool):  # _is_int, inlined on the hot path
        return c
    raise TypeError(f"int coefficient required, got {type(c).__name__}")


class QPoly:
    """A polynomial in q with integer coefficients, lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [_canon_scalar(c) for c in coeffs]
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

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self._coeffs == other._coeffs
        if _is_int(other):
            return self == QPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("QPoly", self._coeffs))

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self._coeffs))

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        if _is_int(other):
            return QPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if _is_int(other):
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

    def __pow__(self, n: int) -> "QPoly":
        return _power(self, n, QPoly.one())

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


class Surd:
    """a + b*s with s*s = D, where a subclass sets the class attribute D.

    The parts keep the type they were given, so int parts stay ints under
    +, -, * and **.  A part of a type outside _PARTS, or a bool, raises
    TypeError; a scalar of a part type stands for scalar + 0*s.
    """

    __slots__ = ("a", "b")
    _PARTS = (int, Fraction, QPoly)

    def __init__(self, a=0, b=0):
        for part in (a, b):
            if not isinstance(part, self._PARTS) or isinstance(part, bool):
                raise TypeError(
                    f"{type(self).__name__} part of type {type(part).__name__} refused")
        self.a = a
        self.b = b

    def _coerce(self, other):
        if type(other) is type(self):
            return other
        if isinstance(other, self._PARTS) and not isinstance(other, bool):
            return type(self)(other)
        return None

    def conjugate(self):
        return type(self)(self.a, -self.b)

    def norm(self):
        return self.a * self.a - self.D * self.b * self.b

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((type(self).__name__, self.a, self.b))

    def __neg__(self):
        return type(self)(-self.a, -self.b)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(
            self.a * other.a + self.b * other.b * self.D,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, type(self)(1))


class Root5(Surd):
    """An element a + b*sqrt(5) of Q(sqrt(5)), with int or Fraction parts."""

    __slots__ = ()
    D = 5
    _PARTS = (int, Fraction)

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise NonRationalResult(f"sqrt(5) part did not cancel: {self}")
        return Fraction(self.a)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(5))")
        scaled = self * other.conjugate()
        return Root5(Fraction(scaled.a, n), Fraction(scaled.b, n))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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
    """base**n by square-and-multiply, starting from one; n is an int >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative int")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def unpack_fields(packed: int, width: int) -> list:
    """Coefficients, lowest first, of a polynomial packed at q = 2**width.

    packed must be nonnegative and every coefficient below 2**width.  The
    integer is converted to bytes once and each field is read back from the
    bytes it spans, so decoding is linear in the size of packed; a width
    that is a whole number of bytes needs no shift.  The result has no
    trailing zero fields.
    """
    bits = packed.bit_length()
    buf = packed.to_bytes(-(-bits // 8), "little")
    mask = (1 << width) - 1
    return [
        int.from_bytes(buf[lo >> 3:(lo + width + 7) >> 3], "little") >> (lo & 7) & mask
        for lo in range(0, bits, width)
    ]


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
