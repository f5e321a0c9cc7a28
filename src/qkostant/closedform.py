"""Closed-form routes to the part-count polynomials.

Three independent alternatives to the lattice-fold oracle live here:

* product_qpoly: for weights of the shape "sum of all simple roots, plus
  extra copies of alpha_i on a sparse interior index set", the polynomial
  factors as q**(m+1) * (1+q)**(r-1-2L) * (2+2q+q**2)**L where L is the
  number of bumped indices and m the total number of extra copies.
* gf_coefficient: for the highest root of B/C/D at rank r, the polynomial
  is the x**r coefficient of a rational generating function whose
  denominator is 1 - (2+2q+q**2)x + (1+2q+q**2+q**3)x**2; implemented as
  the equivalent linear recurrence with family-specific numerators, swept
  on Kronecker-packed integers (see below).
* explicit_qpoly: the same highest-root polynomial written directly as
  g_plus * beta_plus**e + g_minus * beta_minus**e with conjugate surds
  beta = ((q**2+2q+2) +/- q*s)/2, s*s = q*q + 4.  Only the sum of the two
  conjugate terms is needed, so the route works on pairs (x, y) of integer
  polynomials standing for x + y*s: it takes the real part of
  (A + B*s) * (2*beta_plus)**e for the family numerator pair (A, B) and
  divides it by 2**e * (q**2+4), checking that both divisions are exact
  instead of assuming it.

The gf sweep.  Every coefficient of P_r is nonnegative, so each is at most
P_r(1) = c_r, and c_r comes from a first sweep of the recurrence at q = 1:
c_k = 5 c_{k-1} - 5 c_{k-2} + N_k(1).  With W = c_r's bit length rounded up
to a whole byte, the second sweep runs the recurrence at q = 2**W on plain
Python integers: multiplying by the fixed sparse polynomials is a few shifts
and adds.  That sweep is exact integer linear arithmetic, so the last value
is P_r(2**W) whatever carries or borrows the intermediate terms hold, and
one linear-time byte decode (polyring.unpack_fields) reads the coefficients
back.  A negative packed value, or fields that do not sum to c_r (a negative
coefficient borrows from the field above it), raises
InternalCancellationFailure.  There is no cache: every call sweeps from
rank 0 and keeps only its last two terms, so memory is O(size of P_r).

For type A, (1+q)**n in the product and explicit routes is built as a row
of binomial coefficients, not by repeated squaring.

check_bender_conditions verifies the hypotheses of the classical central
limit theorem for coefficient arrays of rational generating functions at
q = 1: the dominant denominator root is simple and no family numerator
vanishes there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCancellationFailure, InvalidSupport, RankTooSmall
from .polyring import QPoly, Root5, unpack_fields
from .rootsys import Weight, validate_type_rank


@dataclass(frozen=True)
class SupportSpec:
    """A bump pattern over the all-ones weight of a rank-r system.

    entries is a tuple of (index, extra) pairs: index i in 1..rank gets
    extra additional copies of alpha_i on top of the base single copy.
    Placement rules enforced at construction:

    * indices strictly increasing and nonconsecutive (gaps of at least 2),
    * every extra count is a positive int,
    * type A: indices stay strictly inside [2, rank-1],
    * types B/C/D: rank >= 5 always, indices strictly inside [2, rank-3].
    """

    lie_type: str
    rank: int
    entries: tuple

    def __post_init__(self):
        validate_type_rank(self.lie_type, self.rank)
        entries = tuple((int(i), int(c)) for i, c in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.lie_type != "A" and self.rank < 5:
            raise InvalidSupport(
                f"type {self.lie_type} product-form weights need rank >= 5, got {self.rank}"
            )
        last = None
        hi = self.rank - 1 if self.lie_type == "A" else self.rank - 3
        for i, c in entries:
            if c < 1:
                raise InvalidSupport(f"extra count at index {i} must be >= 1, got {c}")
            if i < 2 or i > hi:
                raise InvalidSupport(
                    f"index {i} outside the allowed interior [2, {hi}] "
                    f"for type {self.lie_type} rank {self.rank}"
                )
            if last is not None and i - last < 2:
                raise InvalidSupport(f"indices {last} and {i} are consecutive")
            last = i

    @property
    def bump_count(self) -> int:
        """Number of bumped indices (L in the factored polynomial)."""
        return len(self.entries)

    @property
    def total_extra(self) -> int:
        """Total extra copies over the base weight (m in the exponent)."""
        return sum(c for _, c in self.entries)


def weight_of(spec: SupportSpec) -> Weight:
    """The weight a spec describes: all ones plus the extra copies."""
    v = [1] * spec.rank
    for i, c in spec.entries:
        v[i - 1] += c
    return tuple(v)


def product_qpoly(spec: SupportSpec) -> QPoly:
    """Closed product form of the part-count polynomial for spec's weight."""
    r, ell, m = spec.rank, spec.bump_count, spec.total_extra
    return (_binomial_row(r - 1 - 2 * ell) * QPoly((2, 2, 1)) ** ell).shifted(m + 1)


def _binomial_row(n: int) -> QPoly:
    """(1+q)**n from its row of binomial coefficients."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return QPoly(row)


def iter_support_specs(lie_type, rank, max_bumps=2, max_extra=3):
    """All valid specs with at most max_bumps bumped indices, each bumped by
    1..max_extra, in a fixed deterministic order."""
    validate_type_rank(lie_type, rank)
    if lie_type != "A" and rank < 5:
        return
    hi = rank - 1 if lie_type == "A" else rank - 3
    interior = range(2, hi + 1)
    for ell in range(max_bumps + 1):
        for idxs in itertools.combinations(interior, ell):
            if any(b - a < 2 for a, b in zip(idxs, idxs[1:])):
                continue
            for extras in itertools.product(range(1, max_extra + 1), repeat=ell):
                yield SupportSpec(lie_type, rank, tuple(zip(idxs, extras)))


# Generating-function route: P_r = (2+2q+q^2) P_{r-1} - (1+2q+q^2+q^3) P_{r-2}
# + N_r, with P_0 = P_{-1} = 0 and the family numerators below.
_GF_NUMERATORS = {
    "B": {1: QPoly((0, 1)), 2: QPoly((0, -1, -1)), 3: QPoly((0, 0, 1))},
    "C": {1: QPoly((0, 1)), 2: QPoly((0, -1, -1))},
    "D": {4: QPoly((0, 1, 4, 6, 3, 1)), 5: QPoly((0, -1, -4, -6, -5, -3, -1))},
}


def gf_coefficient(lie_type: str, rank: int) -> QPoly:
    """Highest-root part-count polynomial via the rational generating function.

    Defined for families B, C, D at every rank >= 0; below the family's Lie
    minimum the series terms are simply the recurrence's formal values.
    Raises InternalCancellationFailure if the packed result cannot hold
    nonnegative coefficients summing to P_r(1).
    """
    if lie_type not in _GF_NUMERATORS:
        raise ValueError(f"generating-function route covers B, C, D, not {lie_type!r}")
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    numerators = _GF_NUMERATORS[lie_type]

    # At q = 1 the shift polynomials are 5 and 5; c_r bounds every coefficient.
    at_one = {k: n(1) for k, n in numerators.items()}
    c1 = c2 = 0
    for k in range(1, rank + 1):
        c1, c2 = 5 * c1 - 5 * c2 + at_one.get(k, 0), c1
    # Whole bytes per field, so each field decodes without a shift.
    w = 8 * max(1, -(-c1.bit_length() // 8))

    # At q = 2**w, with d = X_{k-1} - X_{k-2}: (2+2q+q^2) X_{k-1} -
    # (1+2q+q^2+q^3) X_{k-2} = X_{k-1} + d + 2q d + q^2 d - q^3 X_{k-2}.
    at_w = {k: n(1 << w) for k, n in numerators.items()}
    x1 = x2 = 0
    for k in range(1, rank + 1):
        d = x1 - x2
        step = x1 + d + (d << (w + 1)) + (d << (2 * w)) - (x2 << (3 * w))
        if k in at_w:
            step += at_w[k]
        x1, x2 = step, x1
    if x1 < 0:
        raise InternalCancellationFailure(
            f"gf sweep for {lie_type}{rank} is negative at q = 2^{w}"
        )
    coeffs = unpack_fields(x1, w)
    if sum(coeffs) != c1:
        raise InternalCancellationFailure(
            f"gf sweep for {lie_type}{rank} decodes to coefficients summing to "
            f"{sum(coeffs)}, not P(1) = {c1}"
        )
    return QPoly(coeffs)


# Surd route.  A pair (x, y) of integer polynomials stands for x + y*s with
# s*s = q*q + 4.
_S_SQUARED = QPoly((4, 0, 1))

#: 2*beta_plus = (q^2 + 2q + 2) + q*s; 2*beta_minus is its conjugate.
_TWO_BETA_PLUS = (QPoly((2, 2, 1)), QPoly((0, 1)))

# Family numerators (A, B) with g_plus = (A + B*s) / (2(q^2 + 4)), and the
# rank shift, which is also the family's minimum rank:
# value = g_plus * beta_plus**(rank - shift) + conjugate.
_EXPLICIT = {
    "B": ((0, 4, 4, 5, 1, 1), (0, 2, 3, 1, 1), 2),
    "C": ((0, 4, 0, 1), (0, 0, 1), 1),
    "D": ((0, 4, 16, 25, 16, 10, 3, 1), (0, 2, 9, 12, 8, 3, 1), 4),
}


def _pair_mul(u, v):
    """(x1 + y1*s)(x2 + y2*s) as a pair."""
    (x1, y1), (x2, y2) = u, v
    return x1 * x2 + y1 * y2 * _S_SQUARED, x1 * y2 + x2 * y1


def _pair_pow(u, n: int):
    """u**n for a pair u, by repeated squaring."""
    result = (QPoly.one(), QPoly.zero())
    while n:
        if n & 1:
            result = _pair_mul(result, u)
        n >>= 1
        if n:
            u = _pair_mul(u, u)
    return result


def _div_s_squared(p: QPoly, label: str) -> QPoly:
    """p / (q^2 + 4) by synthetic division; the remainder must be zero."""
    rem = list(p.coeffs)
    quot = [0] * (len(rem) - 2)
    for i in range(len(rem) - 1, 1, -1):
        c = rem[i]
        quot[i - 2] = c
        rem[i - 2] -= 4 * c
    if any(rem[:2]):
        raise InternalCancellationFailure(
            f"q^2+4 does not divide the surd sum for {label}: remainder {QPoly(rem[:2])}"
        )
    return QPoly(quot)


def explicit_qpoly(lie_type: str, rank: int) -> QPoly:
    """Highest-root part-count polynomial from the conjugate-surd formulas.

    Type A is the plain product q*(1+q)**(rank-1).  For B/C/D, with
    e = rank - shift, the conjugate sum g_plus*beta_plus**e + conjugate
    equals Re[(A + B*s)(2*beta_plus)**e] / (2**e * (q^2+4)).  Both
    divisions must be exact, and either failure raises
    InternalCancellationFailure.
    """
    if lie_type == "A":
        if rank < 1:
            raise RankTooSmall("type A needs rank >= 1")
        return _binomial_row(rank - 1).shifted(1)
    if lie_type not in _EXPLICIT:
        raise ValueError(f"unknown family {lie_type!r}")
    a_coeffs, b_coeffs, shift = _EXPLICIT[lie_type]
    if rank < shift:
        raise RankTooSmall(
            f"explicit formula for type {lie_type} starts at rank {shift}, got {rank}"
        )
    e = rank - shift
    label = f"{lie_type}{rank}"
    x, y = _pair_pow(_TWO_BETA_PLUS, e)
    real = QPoly(a_coeffs) * x + QPoly(b_coeffs) * y * _S_SQUARED
    mask = (1 << e) - 1
    if any(c & mask for c in real.coeffs):
        raise InternalCancellationFailure(f"2^{e} does not divide the surd sum for {label}")
    return _div_s_squared(QPoly([c >> e for c in real.coeffs]), label)


@dataclass(frozen=True)
class BenderReport:
    """Outcome of the central-limit hypotheses check at q = 1.

    The denominator specializes to 1 - 5z + 5z**2; its roots are
    (5 -/+ sqrt(5))/10.  The check verifies the root pair exactly (sum 1,
    product 1/5, both annihilate the denominator), confirms the dominant
    (smaller) root is simple, and evaluates each family numerator there.
    """

    small_root: Root5
    large_root: Root5
    numerator_values: dict
    passed: bool


def _root5_horner(int_coeffs, z: Root5) -> Root5:
    acc = Root5(0)
    for c in reversed(int_coeffs):
        acc = acc * z + c
    return acc


def check_bender_conditions() -> BenderReport:
    """Verify the rational-GF central-limit hypotheses for B, C, D at q = 1."""
    small = Root5(Fraction(1, 2), Fraction(-1, 10))
    large = Root5(Fraction(1, 2), Fraction(1, 10))
    den = [1, -5, 5]
    ok = (
        _root5_horner(den, small) == Root5(0)
        and _root5_horner(den, large) == Root5(0)
        and small + large == Root5(1)
        and small * large == Root5(Fraction(1, 5))
        and small != large  # distinct roots, so the dominant one is simple
    )
    values = {}
    for fam in sorted(_GF_NUMERATORS):
        terms = _GF_NUMERATORS[fam]
        top = max(terms)
        coeffs = [terms.get(k, QPoly.zero())(1) for k in range(top + 1)]
        val = _root5_horner(coeffs, small)
        values[fam] = val
        ok = ok and val != Root5(0)
    return BenderReport(small, large, values, ok)
