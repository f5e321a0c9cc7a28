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

log M(t) is one Horner sum in `decimal` at _MGF_DIGITS digits, anchored so
that no term exceeds its coefficient: it neither overflows nor vanishes at
any t whose t*t/2 is finite, and every digit of the error that the CLI
prints through %.12g is correct.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

from ._record import Record
from .closedform import SupportSpec, highest_qpoly, interior_end, product_qpoly
from .errors import DegenerateDistribution, InvalidSupport, ZeroDistribution, count_text, is_int
from .polyring import QPoly, power_sums
from .rootsys import FAMILIES, LIE_TYPES, validate_type_rank

DEFAULT_T_GRID = (-1.0, -0.5, 0.5, 1.0)

_MGF_DIGITS = 28
# a wider coefficient keeps its top _MGF_BITS bits, about 4 per digit
_MGF_BITS = 4 * _MGF_DIGITS


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


def _decimal(c: int) -> Decimal:
    """c rounded to the current context, read from its top _MGF_BITS bits:
    converting every digit of a wide c costs time quadratic in its length."""
    shift = max(c.bit_length() - _MGF_BITS, 0)
    return Decimal(c >> shift) * Decimal(2) ** shift


def _mgf_errors(coeffs, g1: int, mu: Fraction, m2: Fraction, t_grid) -> list:
    """|log M(t) - t*t/2| of the standardized distribution at each t.

    With n = t/sigma and anchor a, the top degree for n >= 0 and the lowest
    nonzero one for n < 0, g1*M(t)*e**(n*mu) = e**(a*n) * sum c_k y**|k-a|
    for y = e**-|n| <= 1.  Every term is at most its coefficient and the
    term at a is c_a, so the sum is finite and positive; an underflow of y
    to 0 leaves c_a.
    """
    low = next(k for k, c in enumerate(coeffs) if c)
    with localcontext(Context(prec=_MGF_DIGITS)):
        ds = [_decimal(c) for c in coeffs[low:]]
        g1_d = _decimal(g1)
        mu_d = _decimal(mu.numerator) / _decimal(mu.denominator)
        sigma = (_decimal(m2.numerator) / _decimal(m2.denominator)).sqrt()
        out = []
        for t in t_grid:
            t_d = Decimal(t)
            n = t_d / sigma
            y = (-abs(n)).exp()
            acc = Decimal(0)
            for c in (ds if n >= 0 else reversed(ds)):
                acc = acc * y + c
            a = len(coeffs) - 1 if n >= 0 else low
            out.append(float(abs((acc / g1_d).ln() + n * (a - mu_d) - t_d * t_d / 2)))
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
    exkurt = float(m4 / (m2 * m2) - 3)

    ks = max(abs(cum / g1 - normal_cdf((k + 0.5 - mu_f) / sigma_f))
             for k, cum in enumerate(accumulate(g.coeffs)))
    errors = tuple(zip(t_grid, _mgf_errors(g.coeffs, g1, mu, m2, t_grid)))
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
    if not is_int(bumps):
        raise TypeError("bump count must be an int")
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
        if 2 * bumps > interior_end("A", rank):
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
