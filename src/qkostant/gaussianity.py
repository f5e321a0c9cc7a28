"""Empirical Gaussian-convergence diagnostics for part-count distributions.

A part-count polynomial g, normalized by g(1), is a distribution on
{0, ..., deg g}.  As the rank grows these distributions approach a normal
law; this module measures how fast, with four float diagnostics computed
from exact intermediate quantities:

* Kolmogorov-Smirnov distance between the (right-closed) empirical CDF and
  the normal CDF with the distribution's exact mean and variance, using a
  half-integer continuity correction,
* skewness and excess kurtosis, from exact central moments,
* the error |log M(t) - t**2/2| of the standardized log moment generating
  function at fixed points t.

log M(t) is evaluated by Horner's rule on the normalized coefficients when
the degree and coefficient sizes are modest and the Horner sum is finite and
positive, and otherwise by log-sum-exp on log p_k + k*t/sigma, which stays
finite for arbitrarily large coefficients and |t|.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from ._record import Record
from .closedform import SupportSpec, highest_qpolys, product_qpoly
from .errors import DegenerateDistribution, InvalidSupport, ZeroDistribution
from .polyring import QPoly, power_sums
from .rootsys import FAMILIES, LIE_TYPES

DEFAULT_T_GRID = (-1.0, -0.5, 0.5, 1.0)

_HORNER_MAX_DEGREE = 2000
_HORNER_MAX_BITS = 900
_EXP_MAX_ARG = math.log(sys.float_info.max)


class DistSummary(Record):
    """Exact moments plus float normality diagnostics for one distribution.

    mgf_errors holds pairs (t, |log M(t) - t^2/2|).
    """

    __slots__ = ("family", "rank", "mean", "variance", "ks_distance", "skewness",
                 "excess_kurtosis", "mgf_errors")

    def __init__(self, family: str | None, rank: int | None, mean: Fraction,
                 variance: Fraction, ks_distance: float, skewness: float,
                 excess_kurtosis: float, mgf_errors: tuple):
        self._assign(family, rank, mean, variance, ks_distance, skewness,
                     excess_kurtosis, mgf_errors)

    @property
    def max_mgf_error(self) -> float:
        return max((e for _, e in self.mgf_errors), default=0.0)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _central_moments(g: QPoly):
    """(g(1), mean, m2, m3, m4) with everything after g(1) an exact Fraction."""
    g1, e1, e2, e3, e4 = power_sums(g.coeffs, 4)
    mu = Fraction(e1, g1)
    r2, r3, r4 = Fraction(e2, g1), Fraction(e3, g1), Fraction(e4, g1)
    m2 = r2 - mu * mu
    m3 = r3 - 3 * mu * r2 + 2 * mu ** 3
    m4 = r4 - 4 * mu * r3 + 6 * mu * mu * r2 - 3 * mu ** 4
    return g1, mu, m2, m3, m4


def _log_mgf(coeffs, g1: int, t: float, mu_f: float, sigma_f: float) -> float:
    """log of the standardized moment generating function at t."""
    n = t / sigma_f
    if (len(coeffs) - 1 <= _HORNER_MAX_DEGREE and g1.bit_length() <= _HORNER_MAX_BITS
            and n < _EXP_MAX_ARG):
        z = math.exp(n)
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * z + (c / g1 if c else 0.0)
        if 0.0 < acc < math.inf:
            return math.log(acc) - t * mu_f / sigma_f
    log_g1 = math.log(g1)
    terms = [math.log(c) - log_g1 + k * n for k, c in enumerate(coeffs) if c]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(v - top) for v in terms)) - t * mu_f / sigma_f


def summarize(g: QPoly, t_grid=DEFAULT_T_GRID, family=None, rank=None) -> DistSummary:
    """All Gaussian-convergence diagnostics of the distribution g induces.

    Raises ValueError for any t whose t*t/2 is not finite, since the MGF
    error |log M(t) - t*t/2| would not be either.
    """
    t_grid = tuple(t_grid)
    if not all(math.isfinite(t * t / 2.0) for t in t_grid):
        raise ValueError(f"every t needs a finite t*t/2, got {t_grid}")
    if g.is_zero:
        raise ZeroDistribution("cannot normalize the zero polynomial")
    if any(c < 0 for c in g.coeffs):
        raise ValueError("part-count polynomial has a negative coefficient")
    g1, mu, m2, m3, m4 = _central_moments(g)
    if m2 == 0:
        raise DegenerateDistribution(
            "distribution is a point mass, normalized statistics undefined"
        )
    mu_f, var_f = float(mu), float(m2)
    sigma_f = math.sqrt(var_f)
    skew = float(m3) / var_f ** 1.5
    exkurt = float(m4 / (m2 * m2)) - 3.0

    ks = 0.0
    cum = 0
    for k, c in enumerate(g.coeffs):
        cum += c
        emp = cum / g1
        gauss = normal_cdf((k + 0.5 - mu_f) / sigma_f)
        diff = abs(emp - gauss)
        if diff > ks:
            ks = diff
    errors = tuple(
        (t, abs(_log_mgf(g.coeffs, g1, t, mu_f, sigma_f) - t * t / 2.0)) for t in t_grid
    )
    return DistSummary(family, rank, mu, m2, ks, skew, exkurt, errors)


def family_poly(family: str, rank: int, bumps: int = 0) -> QPoly:
    """The part-count polynomial a convergence sweep studies at one rank.

    Highest-root families use closedform.highest_qpolys.  The "product"
    family is the type-A product-form weight bumped by one extra copy at
    indices 2, 4, ..., 2*bumps, which requires rank > 2*bumps.
    """
    if family in LIE_TYPES:
        return highest_qpolys(family, (rank,))[0]
    if family == "product":
        if bumps < 0:
            raise InvalidSupport(f"bump count must be >= 0, got {bumps}")
        entries = tuple((2 * i, 1) for i in range(1, bumps + 1))
        return product_qpoly(SupportSpec("A", rank, entries))
    raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")


def convergence_sweep(family, ranks, t_grid=DEFAULT_T_GRID, bumps=0):
    """Summaries of one family across the given ranks, in input order.

    The highest-root polynomials of all ranks come from one
    closedform.highest_qpolys call: the binomial row for A, and for B, C
    and D the holonomic coefficient recurrence, O(r**2) bit operations per
    rank, with one gf jet sweep and one gf sweep modulo q**3 to the top rank
    for its seeds and checks.
    """
    ranks = tuple(ranks)
    if family in LIE_TYPES:
        polys = highest_qpolys(family, ranks)
    else:
        polys = [family_poly(family, r, bumps) for r in ranks]
    return tuple(
        summarize(g, t_grid, family=family, rank=r) for g, r in zip(polys, ranks)
    )
