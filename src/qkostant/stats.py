"""Exact mean and variance of the number of parts.

Normalizing a part-count polynomial g by g(1) gives a probability
distribution on part counts; the mean and variance of that distribution
are rational and are computed here by three routes that must agree:

* moments_from_jet: from the jet (u0, u1, u2) = (g(1), g'(1), g''(1)/2)
  alone, via mu = u1/u0 and sigma^2 = (2*u2 + u1)/u0 - mu^2.
  moments_from_poly takes the jet of g; the stats subcommand reads the
  highest root's jet from closedform.highest_jet, which for B, C and D is
  the gf recurrence run on jets, so no polynomial is built.
* product_moments: for the factored product-form weights, the factors
  contribute independent summands: mu = (r+1)/2 + m - L/5 and
  sigma^2 = (r-1)/4 + 3L/50.
* closed_moments: for the highest root of each family, closed expressions
  in Q(sqrt(5)) built from powers of 5 +/- sqrt(5).  Root5 keeps integer
  parts integers, so (5 +/- sqrt(5))**r and the products built from them
  stay in plain ints, and each moment is one numerator over one
  denominator: one Q(sqrt(5)) division per moment.  The surd parts cancel
  for every family, leaving rationals.

The closed-form variance for family B carries one documented correction:
its denominator token is evaluated as (5 - 3*sqrt(5)), matching the
companion mean formula.  The alternative reading (5 - sqrt(3)) is not an
element of Q(sqrt(5)) at all and disagrees numerically with the
generating-function route, so it is rejected; see TYPE_B_VARIANCE_NOTE.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import ZeroDistribution
from .polyring import QPoly, Root5, jet_at_one
from .rootsys import validate_type_rank


class MomentPair(Record):
    __slots__ = ("mean", "variance")

    def __init__(self, mean: Fraction, variance: Fraction):
        self._assign(mean, variance)


TYPE_B_VARIANCE_NOTE = (
    "closed-form B variance evaluates its denominator token as (5 - 3*sqrt(5)); "
    "the uncorrected (5 - sqrt(3)) reading lies outside Q(sqrt(5)) and is rejected"
)

#: Limit of mean(r) - mean(r-1) for the B/C/D highest-root families,
#: equal to 7/10 + sqrt(5)/10.  mean(r)/r approaches the same constant but
#: only at rate O(1/r); the increment converges geometrically.
MEAN_GROWTH_LIMIT = Root5(Fraction(7, 10), Fraction(1, 10))


def moments_from_jet(jet) -> MomentPair:
    """Exact part-count mean and variance from (g(1), g'(1), g''(1)/2).

    g(1) must be positive.  The variance (2*u2 + u1)/u0 - mu**2 is built
    over the common denominator u0**2, so each moment is one Fraction.
    """
    u0, u1, u2 = jet
    return MomentPair(Fraction(u1, u0), Fraction((2 * u2 + u1) * u0 - u1 * u1, u0 * u0))


def moments_from_poly(g: QPoly) -> MomentPair:
    """Exact part-count mean and variance of the distribution g induces."""
    if g.is_zero:
        raise ZeroDistribution("cannot normalize the zero polynomial")
    if any(c < 0 for c in g.coeffs):
        raise ValueError("part-count polynomial has a negative coefficient")
    return moments_from_jet(jet_at_one(g.coeffs))


def product_moments(spec: SupportSpec) -> MomentPair:
    """Moments of the product-form weight, summed factor by factor:
    mu = (r+1)/2 + m - L/5 and sigma^2 = (r-1)/4 + 3L/50, each written as
    one Fraction over the common denominator."""
    r, ell, m = spec.rank, spec.bump_count, spec.total_extra
    return MomentPair(Fraction(5 * (r + 1) + 10 * m - 2 * ell, 10),
                      Fraction(25 * (r - 1) + 6 * ell, 100))


def _power_pair(rank: int):
    """(5 - sqrt5)**rank and (5 + sqrt5)**rank: one power and its conjugate."""
    hi = Root5(5, 1) ** rank
    return hi.conjugate(), hi


def closed_moments(lie_type: str, rank: int):
    """Highest-root part-count mean and variance as Root5 values.

    For every family both results are rational (zero sqrt(5) component);
    the cancellation happens inside exact Q(sqrt(5)) arithmetic rather
    than being assumed.  Family B's variance uses the corrected
    denominator reading described in TYPE_B_VARIANCE_NOTE.
    """
    validate_type_rank(lie_type, rank)
    r = rank
    if lie_type == "A":
        return Root5(Fraction(r + 1, 2)), Root5(Fraction(r - 1, 4))
    lo, hi = _power_pair(r)
    lo2, hi2 = lo * lo, hi * hi
    p20 = 20 ** (r + 1)
    if lie_type == "B":
        mean_num = (Root5(5, -1) + Root5(25, -13) * r) * lo + (
            Root5(5, 1) + Root5(25, 13) * r
        ) * hi
        mean_den = (Root5(5, -3) * lo + Root5(5, 3) * hi) * 5
        mean = mean_num / mean_den
        d = (Root5(5, -3) * lo + Root5(5, 3) * hi) ** 2 * (-5)
        return mean, (
            Root5(p20) * r * r
            + (Root5(-182, 78) * lo2 - Root5(182, 78) * hi2 + Root5(36 * p20 // 5)) * r
            + Root5(146, -50) * lo2 + Root5(146, 50) * hi2 - Root5(63 * p20 // 5)
        ) / d
    if lie_type == "C":
        mean = (
            (Root5(1, -1) + Root5(7, -1) * r) * lo + (Root5(1, 1) + Root5(7, 1) * r) * hi
        ) / ((lo + hi) * 10)
        d = (lo + hi) ** 2 * 25
        return mean, (
            Root5(p20 // 4) * r * r
            + ((lo2 + hi2) * 13 + Root5(9 * p20 // 5)) * r
            + Root5(-21, 4) * hi2 - Root5(21, 4) * lo2 - Root5(37 * 20 ** r)
        ) / d
    # type D
    mean = (
        (Root5(15, -1) + Root5(-5, 7) * r) * lo + (Root5(15, 1) - Root5(5, 7) * r) * hi
    ) / (Root5(0, 10) * (lo - hi))
    d = (hi - lo) ** 2 * (-25)
    return mean, (
        Root5(p20 // 4) * r * r - ((hi2 + lo2) * 13 + Root5(p20 // 5)) * r
        + Root5(34, -3) * hi2 + Root5(34, 3) * lo2 - Root5(23 * 20 ** r)
    ) / d
