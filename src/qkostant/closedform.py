"""Closed-form routes to the part-count polynomials.

Four alternatives to the lattice-fold oracle live here:

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
  2*beta = T +/- X*s, T = q**2+2q+2, X = q, s*s = D = q**2+4.  Only the
  sum of the two conjugate terms is needed: with (2*beta_plus)**e =
  a + b*s and the family numerator pair (A, B) it is R / (2**e * D),
  R = A*a + B*D*b, and both divisions are checked to be exact.  The power
  runs left to right on a and b packed at q = 2**w, as the gf sweep runs:
  per bit of e a squaring in three big-integer squares, per set bit a step
  by T + X*s in shifts and adds.  No coefficient is negative, so before
  each step w widens to hold the step's value at q = 1, (5 + sqrt(5))**k;
  R is decoded once, at the width of R(1), as the gf sweep is (below).  In
  process B55 takes 0.5 ms, C161 3.8 ms, D500 0.12 s, B800 0.55 s and
  C1000 1.08 s (2-core machine).  It and gf_coefficient solve one order-2
  recurrence past a start rank, so agreeing at two ranks there makes them
  agree at every rank: shared_recurrence states that rule, and verify
  checks it.
* the holonomic route (behind highest_qpoly): the same highest-root
  polynomial from the linear recurrence its coefficients satisfy.  It and
  its tables live in the holonomic module, which only a B/C/D
  highest_qpoly call imports, so qpoly, stats and verify never compile it.

The jet sweep.  Only three numbers of P_r are needed for its mean and
variance: the jet (P_r(1), P_r'(1), P_r''(1)/2), which is P_r(1 + h) modulo
h**3.  Reducing modulo (q-1)**3 is a ring map, so the recurrence runs on
jets as it does on polynomials, with the shift polynomials 2+2q+q**2 and
1+2q+q**2+q**3 becoming (5, 4, 1) and (5, 7, 4): each step costs a few
multiplications of O(r)-bit integers by small ones, O(r**2) bit operations
to rank r against the packed sweep's O(r**3).  gf_jet exposes the sweep;
highest_jet serves the stats subcommand from it without building P_r.

The gf sweep.  Every coefficient of P_r is nonnegative, so each is at most
P_r(1), the first entry of the jet.  With W = P_r(1)'s bit length (at
least 1), the packed sweep runs the recurrence at q = 2**W on plain Python
integers: multiplying by the fixed sparse polynomials is a few shifts and
adds.  That sweep is exact integer linear arithmetic, so the last value is
P_r(2**W) whatever carries or borrows the intermediate terms hold, and one
linear-time kronecker.decode reads the coefficients back, raising
InternalCancellationFailure on a negative value or on fields without the
whole jet.  There is no cache: every call sweeps from rank 0 and keeps
only its last two terms, so memory is O(size of P_r).

For type A, (1+q)**n in the product and explicit routes is built as a row
of binomial coefficients, not by repeated squaring.

highest_qpoly is the one place that picks a highest root's closed route:
the binomial row of explicit_qpoly for type A, the holonomic route
(holonomic.holonomic_qpoly) for B, C and D.  The converge subcommand, the
convergence sweep and family_poly reach the highest-root polynomial through
it; highest_jet makes the same choice for the jet alone (gf_jet for B, C
and D).  gf_coefficient and explicit_qpoly stay independent routes:
qpoly --route and verify call them directly and compare them with each
other and with the fold.

check_bender_conditions verifies the hypotheses of the classical central
limit theorem for coefficient arrays of rational generating functions at
q = 1: the dominant denominator root is simple and no family numerator
vanishes there.
"""

from __future__ import annotations

import itertools

from ._record import Record
from .errors import InternalCancellationFailure, InvalidSupport, RankTooSmall, is_int
from .kronecker import decode, repack
from .polyring import QPoly, Root5, jet_at_one
from .rootsys import Weight, check_rank_type, validate_type_rank


class SupportSpec(Record):
    """A bump pattern over the all-ones weight of a rank-r system.

    entries is a tuple of (index, extra) pairs: index i in 1..rank gets
    extra additional copies of alpha_i on top of the base single copy.
    Placement rules enforced at construction:

    * indices strictly increasing and nonconsecutive (gaps of at least 2),
    * every index and extra count is an int (not a bool), every extra positive,
    * type A: indices stay strictly inside [2, rank-1],
    * types B/C/D: rank >= 5 always, indices strictly inside [2, rank-3].
    """

    __slots__ = ("lie_type", "rank", "entries")

    def __init__(self, lie_type: str, rank: int, entries: tuple):
        validate_type_rank(lie_type, rank)
        entries = tuple((i, c) for i, c in entries)
        if not all(is_int(x) for e in entries for x in e):
            raise TypeError("support indices and extras must be ints")
        hi = interior_end(lie_type, rank)
        last = None
        for i, c in entries:
            if c < 1:
                raise InvalidSupport(f"extra count at index {i} must be >= 1, got {c}")
            if i < 2 or i > hi:
                raise InvalidSupport(
                    f"index {i} outside the allowed interior [2, {hi}] "
                    f"for type {lie_type} rank {rank}"
                )
            if last is not None and i <= last:
                raise InvalidSupport(f"indices must strictly increase, got {last} then {i}")
            if last is not None and i - last < 2:
                raise InvalidSupport(f"indices {last} and {i} are consecutive")
            last = i
        self._assign(lie_type, rank, entries)

    @property
    def bump_count(self) -> int:
        """Number of bumped indices (L in the factored polynomial)."""
        return len(self.entries)

    @property
    def total_extra(self) -> int:
        """Total extra copies over the base weight (m in the exponent)."""
        return sum(c for _, c in self.entries)


def interior_end(lie_type: str, rank: int) -> int:
    """Last index a bump may take; B/C/D have no bump weights below rank 5."""
    if lie_type != "A" and rank < 5:
        raise InvalidSupport(f"type {lie_type} product-form weights need rank >= 5, got {rank}")
    return rank - 1 if lie_type == "A" else rank - 3


def weight_of(spec: SupportSpec) -> Weight:
    """The weight a spec describes: all ones plus the extra copies."""
    v = [1] * spec.rank
    for i, c in spec.entries:
        v[i - 1] += c
    return tuple(v)


def product_qpoly(spec: SupportSpec) -> QPoly:
    """Closed product form of the part-count polynomial for spec's weight:
    q**(m+1) * (1+q)**(r-1-2L) * (2+2q+q**2)**L, on one coefficient list."""
    r, ell, m = spec.rank, spec.bump_count, spec.total_extra
    row = [0] * (m + 1) + list(_binomial_row(r - 1 - 2 * ell).coeffs)
    for _ in range(ell):  # times 2 + 2q + q**2
        row = [2 * a + 2 * b + c for a, b, c in zip(row + [0, 0], [0, *row, 0], [0, 0, *row])]
    return QPoly(row)


def _binomial_row(n: int) -> QPoly:
    """(1+q)**n from its row of binomial coefficients."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return QPoly(row)


def iter_support_specs(lie_type, rank):
    """The bump family: all valid specs with at most 2 bumped indices, each
    bumped by 1..3, in a fixed deterministic order."""
    validate_type_rank(lie_type, rank)
    try:
        interior = range(2, interior_end(lie_type, rank) + 1)
    except InvalidSupport:  # no bump weights at this rank
        return
    for ell in range(3):
        for idxs in itertools.combinations(interior, ell):
            if any(b - a < 2 for a, b in zip(idxs, idxs[1:])):
                continue
            for extras in itertools.product(range(1, 4), repeat=ell):
                yield SupportSpec(lie_type, rank, tuple(zip(idxs, extras)))


# Generating-function route: P_r = S1 P_{r-1} - S2 P_{r-2} + N_r, with
# P_0 = P_{-1} = 0, the shift polynomials S1, S2 and the family numerators
# below.
_GF_SHIFTS = (QPoly((2, 2, 1)), QPoly((1, 2, 1, 1)))
_GF_NUMERATORS = {
    "B": {1: QPoly((0, 1)), 2: QPoly((0, -1, -1)), 3: QPoly((0, 0, 1))},
    "C": {1: QPoly((0, 1)), 2: QPoly((0, -1, -1))},
    "D": {4: QPoly((0, 1, 4, 6, 3, 1)), 5: QPoly((0, -1, -4, -6, -5, -3, -1))},
}


def gf_coefficient(lie_type: str, rank: int) -> QPoly:
    """Highest-root part-count polynomial via the rational generating function.

    Defined for families B, C, D at every rank >= 0; below the family's Lie
    minimum the series terms are simply the recurrence's formal values.
    Raises InternalCancellationFailure unless the packed result decodes to
    nonnegative coefficients with the jet gf_jet gives P_r.
    """
    jet = gf_jet(lie_type, rank)
    # P_r(1) bounds every coefficient, so its bit length is a field width
    # that decodes exactly.
    w = jet[0].bit_length() or 1
    # At q = 2**w, with d = X_{k-1} - X_{k-2}: (2+2q+q^2) X_{k-1} -
    # (1+2q+q^2+q^3) X_{k-2} = X_{k-1} + d + 2q d + q^2 d - q^3 X_{k-2}.
    at_w = {k: n(1 << w) for k, n in _GF_NUMERATORS[lie_type].items()}
    x1 = x2 = 0
    for k in range(1, rank + 1):
        d = x1 - x2
        step = x1 + d + (d << (w + 1)) + (d << (2 * w)) - (x2 << (3 * w))
        if k in at_w:
            step += at_w[k]
        x1, x2 = step, x1
    return QPoly(decode(x1, w, jet, f"gf sweep for {lie_type}{rank}"))


def gf_jet(lie_type: str, rank: int) -> tuple:
    """(P_r(1), P_r'(1), P_r''(1)/2) for gf_coefficient's P_r.

    The same recurrence, under the same rank rules, run in
    Z[q]/((q-1)**3): one sweep of integer triples.
    """
    if lie_type not in _GF_NUMERATORS:
        raise ValueError(f"generating-function route covers B, C, D, not {lie_type!r}")
    check_rank_type(rank)
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    numerators = {k: jet_at_one(n.coeffs) for k, n in _GF_NUMERATORS[lie_type].items()}
    (a0, a1, a2), (b0, b1, b2) = (jet_at_one(s.coeffs) for s in _GF_SHIFTS)
    # (x0, x1, x2) is the jet of P_{k-1}, (y0, y1, y2) that of P_{k-2}; a
    # product keeps the terms below h**3.
    x0 = x1 = x2 = y0 = y1 = y2 = 0
    for k in range(1, rank + 1):
        n0, n1, n2 = numerators.get(k, (0, 0, 0))
        x0, x1, x2, y0, y1, y2 = (
            a0 * x0 - b0 * y0 + n0,
            a0 * x1 + a1 * x0 - b0 * y1 - b1 * y0 + n1,
            a0 * x2 + a1 * x1 + a2 * x0 - b0 * y2 - b1 * y1 - b2 * y0 + n2,
            x0, x1, x2,
        )
    return x0, x1, x2


def highest_qpoly(lie_type: str, rank: int) -> QPoly:
    """The highest root's part-count polynomial by its closed route.

    The rank is validated first, so one below the Lie minimum raises
    RankTooSmall before any work starts.
    """
    validate_type_rank(lie_type, rank)
    if lie_type == "A":
        return explicit_qpoly("A", rank)
    from .holonomic import holonomic_qpoly

    return holonomic_qpoly(lie_type, rank)


def highest_jet(lie_type: str, rank: int) -> tuple:
    """The jet (P(1), P'(1), P''(1)/2) of highest_qpoly's polynomial.

    Validated as highest_qpoly is.  No polynomial is built: B, C and D come
    from gf_jet, and type A's q*(1+q)**n with n = r-1 has the closed-form
    jet (2**n, (r+1)*2**(r-2), n*(n+3)*2**(n-3)).
    """
    validate_type_rank(lie_type, rank)
    if lie_type == "A":
        r = rank
        return 1 << (r - 1), ((r + 1) << r) >> 2, (((r - 1) * (r + 2)) << (r - 1)) >> 3
    return gf_jet(lie_type, rank)


# 2*beta_plus = T + X*s with s*s = D; 2*beta_minus = T - X*s.
_T, _X, _D = QPoly((2, 2, 1)), QPoly((0, 1)), QPoly((4, 0, 1))

#: Per family, the numerators (A, B) with g_plus = (A + B*s) / (2(q^2 + 4)),
#: and the rank shift, which is also the family's minimum rank:
#: value = g_plus * beta_plus**(rank - shift) + conjugate.
EXPLICIT = {
    "B": ((0, 4, 4, 5, 1, 1), (0, 2, 3, 1, 1), 2),
    "C": ((0, 4, 0, 1), (0, 0, 1), 1),
    "D": ((0, 4, 16, 25, 16, 10, 3, 1), (0, 2, 9, 12, 8, 3, 1), 4),
}


def shared_recurrence() -> tuple:
    """(holds, starts): whether 2*beta_plus = T + X*s, so its conjugate too, is
    a root of y**2 - 2*S1*y + 4*S2 (its rational and s parts both vanish), and
    per family the rank max(shift, last numerator rank - 1) past which
    explicit_qpoly and gf_coefficient then both solve x_r = S1*x_{r-1} -
    S2*x_{r-2}: agreeing at ranks shift..starts[t] + 1, they agree at every
    rank from shift on (Stanley, EC1 4.1)."""
    s1, s2 = _GF_SHIFTS
    starts = {t: max(shift, max(_GF_NUMERATORS[t]) - 1) for t, (_, _, shift) in EXPLICIT.items()}
    rational = _T * _T + _X * _X * _D - 2 * s1 * _T + 4 * s2
    return rational == 0 and 2 * _T * _X - 2 * s1 * _X == 0, starts


def _div_s_squared(coeffs: list, label: str) -> QPoly:
    """coeffs / (q^2 + 4) by synthetic division; the remainder must be zero."""
    rem = list(coeffs)
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


def _byte_width(n: int) -> int:
    """The bit length of n rounded up to whole bytes."""
    return -(-n.bit_length() // 8) * 8


def _times(packed: int, p: QPoly, w: int) -> int:
    """packed * p(2**w) for a short p: one shift and add per nonzero term."""
    return sum(c * packed << k * w for k, c in enumerate(p.coeffs) if c)


def _surd_power(e: int) -> tuple:
    """(a, b, w, z): (2*beta_plus)**e = a + b*s packed at q = 2**w, and its
    value z = (5 + sqrt(5))**e at q = 1, which bounds every field (z.a >= z.b).
    Packed arithmetic is exact, so (a + b)**2, the squaring's third square,
    may carry between fields; only each step's result must fit them."""
    a, b, w, z = 1, 0, 8, Root5(1)
    xd = _X * _D
    # a squaring per bit of e, then a step by T + X*s if the bit is set
    for step in bin(e)[2:].replace("1", "sm").replace("0", "s"):
        z = z * z if step == "s" else z * Root5(5, 1)
        new = _byte_width(z.a)
        a, b, w = repack(a, w, new), repack(b, w, new), new
        if step == "s":
            aa, bb, ab = a * a, b * b, a + b
            a, b = aa + _times(bb, _D, w), ab * ab - aa - bb
        else:
            a, b = _times(a, _T, w) + _times(b, xd, w), _times(a, _X, w) + _times(b, _T, w)
    return a, b, w, z


def explicit_qpoly(lie_type: str, rank: int) -> QPoly:
    """Highest-root part-count polynomial from the conjugate-surd formulas.

    Type A is the plain product q*(1+q)**(rank-1).  For B/C/D, with
    e = rank - shift, the conjugate sum g_plus*beta_plus**e + conjugate is
    R / (2**e * (q^2+4)), R = A*a + B*D*b for (2*beta_plus)**e = a + b*s.  A
    negative packed R, fields that do not sum to R(1), or either division
    leaving a remainder raises InternalCancellationFailure.
    """
    if lie_type == "A":
        validate_type_rank("A", rank)
        return _binomial_row(rank - 1).shifted(1)
    if lie_type not in EXPLICIT:
        raise ValueError(f"unknown family {lie_type!r}")
    check_rank_type(rank)
    a_coeffs, b_coeffs, shift = EXPLICIT[lie_type]
    if rank < shift:
        raise RankTooSmall(
            f"explicit formula for type {lie_type} starts at rank {shift}, got {rank}"
        )
    e = rank - shift
    label = f"{lie_type}{rank}"
    a, b, w, z = _surd_power(e)
    num_a, num_bd = QPoly(a_coeffs), QPoly(b_coeffs) * _D
    total = num_a(1) * z.a + num_bd(1) * z.b
    width = max(w, _byte_width(total))  # repack never narrows
    packed = _times(repack(a, w, width), num_a, width) + _times(repack(b, w, width), num_bd, width)
    coeffs = decode(packed, width, (total,), f"surd sum for {label}")
    mask = (1 << e) - 1
    if any(c & mask for c in coeffs):
        raise InternalCancellationFailure(f"2^{e} does not divide the surd sum for {label}")
    return _div_s_squared([c >> e for c in coeffs], label)


class BenderReport(Record):
    """Outcome of the central-limit hypotheses check at q = 1.

    The denominator specializes to 1 - 5z + 5z**2; its roots are
    (5 -/+ sqrt(5))/10.  The check verifies the root pair exactly (sum 1,
    product 1/5, both annihilate the denominator), confirms the dominant
    (smaller) root is simple, and evaluates each family numerator there.
    """

    __slots__ = ("small_root", "large_root", "numerator_values", "passed")

    def __init__(self, small_root: Root5, large_root: Root5, numerator_values: dict,
                 passed: bool):
        self._assign(small_root, large_root, numerator_values, passed)


def check_bender_conditions() -> BenderReport:
    """Verify the rational-GF central-limit hypotheses for B, C, D at q = 1."""
    from fractions import Fraction

    small = Root5(Fraction(1, 2), Fraction(-1, 10))
    large = Root5(Fraction(1, 2), Fraction(1, 10))
    den = QPoly((1, -5, 5))
    ok = (
        den(small) == Root5(0)
        and den(large) == Root5(0)
        and small + large == Root5(1)
        and small * large == Root5(Fraction(1, 5))
        and small != large  # distinct roots, so the dominant one is simple
    )
    values = {}
    for fam in sorted(_GF_NUMERATORS):
        terms = _GF_NUMERATORS[fam]
        top = max(terms)
        val = QPoly([terms.get(k, QPoly.zero())(1) for k in range(top + 1)])(small)
        values[fam] = val
        ok = ok and val != Root5(0)
    return BenderReport(small, large, values, ok)
