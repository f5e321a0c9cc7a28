"""Normality diagnostics: exactness of the inner arithmetic, float sanity."""

import math
import random
from fractions import Fraction

import pytest

from qkostant import (
    DEFAULT_T_GRID,
    DegenerateDistribution,
    InvalidSupport,
    QPoly,
    RankTooSmall,
    ZeroDistribution,
    convergence_sweep,
    family_poly,
    gf_coefficient,
    normal_cdf,
    summarize,
)
from qkostant import gaussianity
from qkostant.closedform import highest_qpolys

rng = random.Random(31459)


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.0) - 0.8413447460685429) < 1e-15
    for x in (0.3, 1.7, 4.2):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-15


def test_bernoulli_half_summary():
    s = summarize(QPoly((1, 1)))
    assert s.mean == Fraction(1, 2)
    assert s.variance == Fraction(1, 4)
    assert s.skewness == 0.0
    assert abs(s.excess_kurtosis + 2.0) < 1e-14
    # CDF gap is at k=1: 1 - Phi(2)
    assert abs(s.ks_distance - (1.0 - normal_cdf(2.0))) < 1e-15


def test_binomial_exact_excess_kurtosis():
    for r in (2, 5, 16, 41):
        s = summarize(QPoly((1, 1)) ** r)
        assert s.skewness == 0.0
        assert abs(s.excess_kurtosis - (-2.0 / r)) < 1e-13


def test_central_moments_against_direct_sum():
    polys = [gf_coefficient("B", 12), gf_coefficient("D", 25),
             QPoly([rng.randint(0, 9) for _ in range(50)] + [1])]
    for g in polys:
        g1, mu, m2, m3, m4 = gaussianity._central_moments(g)
        assert g1 == g(1)
        probs = [Fraction(c, g1) for c in g.coeffs]
        assert sum(probs) == 1
        for j, got in ((2, m2), (3, m3), (4, m4)):
            want = sum(p * (Fraction(k) - mu) ** j for k, p in enumerate(probs))
            assert got == want, j


def test_summary_invariant_under_scaling():
    g = gf_coefficient("C", 10)
    a, b = summarize(g), summarize(g * 7)
    assert (a.mean, a.variance) == (b.mean, b.variance)
    assert a.ks_distance == b.ks_distance
    assert a.skewness == b.skewness
    assert a.excess_kurtosis == b.excess_kurtosis
    assert a.mgf_errors == b.mgf_errors


def test_horner_and_logsumexp_paths_agree(monkeypatch):
    g = gf_coefficient("D", 40)
    g1, mu, m2, _, _ = gaussianity._central_moments(g)
    mu_f, sigma_f = float(mu), math.sqrt(float(m2))
    for t in (-1.0, -0.5, 0.5, 1.0):
        horner = gaussianity._log_mgf(g.coeffs, g1, t, mu_f, sigma_f)
        monkeypatch.setattr(gaussianity, "_HORNER_MAX_DEGREE", -1)
        lse = gaussianity._log_mgf(g.coeffs, g1, t, mu_f, sigma_f)
        monkeypatch.undo()
        assert abs(horner - lse) < 1e-11, t


def test_large_rank_uses_logsumexp_without_overflow():
    # rank 1300 exceeds the Horner degree cap; the sweep must still finish,
    # and the error at t=1 tracks skewness/6 (about 0.002 here)
    g = highest_qpolys("B", (1300,))[0]
    assert g.degree > gaussianity._HORNER_MAX_DEGREE
    s = summarize(g, t_grid=(1.0,))
    assert s.max_mgf_error < 3e-3


def test_diagnostics_shrink_along_ranks():
    for family in ("A", "B", "C", "D"):
        sweep = convergence_sweep(family, (16, 64, 256))
        ks = [s.ks_distance for s in sweep]
        assert ks[0] > ks[1] > ks[2] > 0
        assert abs(sweep[-1].skewness) < abs(sweep[0].skewness) + 1e-12
        assert abs(sweep[-1].excess_kurtosis) < abs(sweep[0].excess_kurtosis)
        assert sweep[-1].max_mgf_error < sweep[0].max_mgf_error


def test_second_cumulant_normalization():
    # at tiny t the standardized log-MGF is t^2/2 up to O(t^3), so the
    # reported error must be far below t^2 itself
    for family in ("A", "B", "C", "D", "product"):
        for rank in (20, 80, 320):
            s = summarize(family_poly(family, rank, bumps=2), t_grid=(1e-3,))
            assert s.max_mgf_error < 1e-6, (family, rank)


def test_family_poly_validation():
    assert family_poly("product", 9, bumps=0) == QPoly((1, 1)) ** 8 * QPoly.q()
    with pytest.raises(ValueError):
        family_poly("Z", 5)
    with pytest.raises(Exception):
        family_poly("product", 4, bumps=2)  # bump index 4 exceeds the interior
    with pytest.raises(RankTooSmall):
        family_poly("B", -3)
    with pytest.raises(RankTooSmall):
        family_poly("C", 2)  # C starts at rank 3, as stats requires
    with pytest.raises(InvalidSupport):
        family_poly("product", 20, bumps=-1)


def test_summarize_rejects_degenerate_input():
    with pytest.raises(ZeroDistribution):
        summarize(QPoly.zero())
    with pytest.raises(DegenerateDistribution):
        summarize(QPoly.term(3, 5))  # point mass at 5
    with pytest.raises(ValueError):
        summarize(QPoly((1, -2, 1)))


@pytest.mark.parametrize("t", [1e200, -1e155, math.nan, math.inf])
def test_summarize_rejects_t_without_finite_half_square(t):
    # |log M(t) - t*t/2| cannot be finite once t*t/2 overflows
    with pytest.raises(ValueError, match="finite"):
        summarize(gf_coefficient("B", 30), (0.5, t))


def test_sweep_keeps_input_order():
    ranks = (20, 8, 16, 12)
    sweep = convergence_sweep("C", ranks, t_grid=DEFAULT_T_GRID)
    assert [s.rank for s in sweep] == list(ranks)
    assert sweep == tuple(summarize(gf_coefficient("C", r), family="C", rank=r)
                          for r in ranks)
