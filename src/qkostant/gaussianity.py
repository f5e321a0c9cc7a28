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
from itertools import accumulate

from ._record import Record
from .closedform import SupportSpec, highest_qpoly, product_qpoly
from .errors import DegenerateDistribution, InvalidSupport, ZeroDistribution, count_text
from .polyring import QPoly, power_sums
from .rootsys import FAMILIES, LIE_TYPES, validate_type_rank

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
    """(g(1), mean, m2, m3, m4), each moment m_j one exact Fraction over
    g(1)**j: g(1)**j * m_j is an integer polynomial in the power sums."""
    g1, e1, e2, e3, e4 = power_sums(g.coeffs, 4)
    n2 = e2 * g1 - e1 * e1
    n3 = (e3 * g1 - 3 * e1 * e2) * g1 + 2 * e1 ** 3
    n4 = ((e4 * g1 - 4 * e1 * e3) * g1 + 6 * e1 * e1 * e2) * g1 - 3 * e1 ** 4
    return (g1, Fraction(e1, g1), Fraction(n2, g1 * g1), Fraction(n3, g1 ** 3),
            Fraction(n4, g1 ** 4))


def _log_mgfs(coeffs, g1: int, t_grid, mu_f: float, sigma_f: float) -> list:
    """log of the standardized moment generating function at each t.

    The t share the per-coefficient work: c/g1 for Horner's rule and
    log c - log g1 for log-sum-exp are each computed once, on the first t
    that takes that path.
    """
    horner_ok = len(coeffs) - 1 <= _HORNER_MAX_DEGREE and g1.bit_length() <= _HORNER_MAX_BITS
    probs = logs = None
    out = []
    for t in t_grid:
        n = t / sigma_f
        if horner_ok and n < _EXP_MAX_ARG:
            if probs is None:
                probs = [c / g1 if c else 0.0 for c in reversed(coeffs)]
            z = math.exp(n)
            acc = 0.0
            for p in probs:
                acc = acc * z + p
            if 0.0 < acc < math.inf:
                out.append(math.log(acc) - t * mu_f / sigma_f)
                continue
        if logs is None:
            log_g1 = math.log(g1)
            logs = [(k, math.log(c) - log_g1) for k, c in enumerate(coeffs) if c]
        terms = [lp + k * n for k, lp in logs]
        top = max(terms)
        out.append(top + math.log(math.fsum(math.exp(v - top) for v in terms))
                   - t * mu_f / sigma_f)
    return out


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

    ks = max(abs(cum / g1 - normal_cdf((k + 0.5 - mu_f) / sigma_f))
             for k, cum in enumerate(accumulate(g.coeffs)))
    errors = tuple(
        (t, abs(log_m - t * t / 2.0))
        for t, log_m in zip(t_grid, _log_mgfs(g.coeffs, g1, t_grid, mu_f, sigma_f))
    )
    return DistSummary(family, rank, mu, m2, ks, skew, exkurt, errors)


def family_poly(family: str, rank: int, bumps: int = 0) -> QPoly:
    """The part-count polynomial a convergence sweep studies at one rank.

    Highest-root families use closedform.highest_qpoly.  The "product"
    family is the type-A product-form weight bumped by one extra copy at
    indices 2, 4, ..., 2*bumps, which requires rank > 2*bumps.  Every
    family's input, bumps included, is checked here by _check_rank.
    """
    _check_rank(family, rank, bumps)
    if family in LIE_TYPES:
        return highest_qpoly(family, rank)
    entries = tuple((2 * i, 1) for i in range(1, bumps + 1))
    return product_qpoly(SupportSpec("A", rank, entries))


def _check_rank(family, rank, bumps):
    """Raise unless family_poly(family, rank, bumps) is defined."""
    if bumps and family != "product":
        raise InvalidSupport("--bumps only applies to the product family")
    if family in LIE_TYPES:
        validate_type_rank(family, rank)
    elif family != "product":
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    elif bumps < 0:
        raise InvalidSupport(f"bump count must be >= 0, got {bumps}")
    else:
        validate_type_rank("A", rank)
        if rank <= 2 * bumps:
            raise InvalidSupport(
                f"product family with --bumps {bumps} needs rank > "
                f"{count_text(2 * bumps)}, got {rank}"
            )


def convergence_sweep(family, ranks, t_grid=DEFAULT_T_GRID, bumps=0):
    """Summaries of one family across the given ranks, in input order.

    Every rank is checked by _check_rank, which also refuses bumps for every
    family but "product", before any polynomial is built.  Each rank's
    polynomial then comes from family_poly: the binomial row for A, and for
    B, C and D the holonomic coefficient recurrence, O(r**2) bit operations
    per rank.
    """
    ranks = tuple(ranks)
    for r in ranks:
        _check_rank(family, r, bumps)
    return tuple(
        summarize(family_poly(family, r, bumps), t_grid, family=family, rank=r) for r in ranks
    )
