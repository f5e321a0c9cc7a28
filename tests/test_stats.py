"""Exact part-count statistics, three ways."""

import random
from fractions import Fraction

import pytest

from qkostant import (
    MEAN_GROWTH_LIMIT,
    MomentPair,
    NonRationalResult,
    QPoly,
    Root5,
    SupportSpec,
    ZeroDistribution,
    build_root_system,
    closed_moments,
    explicit_qpoly,
    gf_coefficient,
    iter_support_specs,
    moments_from_jet,
    moments_from_poly,
    product_moments,
    qanalog,
    weight_of,
)

rng = random.Random(8712)


def test_moments_from_small_poly():
    mp = moments_from_poly(QPoly((0, 1, 2, 1)))  # the A3 all-ones polynomial
    assert mp.mean == 2
    assert mp.variance == Fraction(1, 2)
    mp = moments_from_poly(QPoly((0, 1, 1, 1)))  # B2 highest root
    assert mp.mean == 2
    assert mp.variance == Fraction(2, 3)


def test_moments_from_jet_match_moments_from_poly():
    from qkostant.closedform import highest_jet

    # (g(1), g'(1), g''(1)/2) of the B2 highest root q + q^2 + q^3
    assert moments_from_jet((3, 6, 4)) == MomentPair(2, Fraction(2, 3))
    for fam, ranks in (("A", (1, 9, 40)), ("B", (2, 17, 60)), ("C", (3, 30)), ("D", (4, 41))):
        for r in ranks:
            jet = highest_jet(fam, r)
            poly = explicit_qpoly(fam, r)
            assert moments_from_jet(jet) == moments_from_poly(poly), (fam, r)
            mean, var = closed_moments(fam, r)
            assert moments_from_jet(jet) == MomentPair(mean.as_fraction(), var.as_fraction())


def test_moments_reject_bad_distributions():
    with pytest.raises(ZeroDistribution):
        moments_from_poly(QPoly.zero())
    with pytest.raises(ValueError):
        moments_from_poly(QPoly((1, -1, 1)))


def test_moments_are_exact_fractions():
    poly = gf_coefficient("D", 9)
    mp = moments_from_poly(poly)
    assert isinstance(mp.mean, Fraction)
    assert isinstance(mp.variance, Fraction)
    total = poly(1)
    first = sum(k * c for k, c in enumerate(poly.coeffs))
    assert mp.mean == Fraction(first, total)


def test_product_moments_match_polynomial():
    for t, r in [("A", 6), ("A", 11), ("B", 7), ("C", 9), ("D", 10)]:
        specs = list(iter_support_specs(t, r))
        for spec in rng.sample(specs, min(10, len(specs))):
            from qkostant import product_qpoly

            want = moments_from_poly(product_qpoly(spec))
            got = product_moments(spec)
            assert got.mean == want.mean, spec
            assert got.variance == want.variance, spec


def test_product_moments_against_oracle():
    spec = SupportSpec("A", 5, ((3, 2),))
    system = build_root_system("A", 5)
    direct = moments_from_poly(qanalog(system, weight_of(spec)))
    closed = product_moments(spec)
    assert closed.mean == direct.mean == Fraction(5 + 1, 2) + 2 - Fraction(1, 5)
    assert closed.variance == direct.variance == Fraction(4, 4) + Fraction(3, 50)


def test_closed_moments_match_gf_route():
    for fam, lo in [("B", 2), ("C", 3), ("D", 4)]:
        for r in range(lo, 30):
            mean, variance = closed_moments(fam, r)
            direct = moments_from_poly(gf_coefficient(fam, r))
            assert mean.as_fraction() == direct.mean, (fam, r)
            assert variance.as_fraction() == direct.variance, (fam, r)


def test_closed_moments_type_a():
    for r in range(1, 15):
        mean, variance = closed_moments("A", r)
        direct = moments_from_poly(explicit_qpoly("A", r))
        assert mean.as_fraction() == direct.mean
        assert variance.as_fraction() == direct.variance
        # binomial-shift distribution: mean 1 + (r-1)/2, variance (r-1)/4
        assert direct.mean == 1 + Fraction(r - 1, 2)
        assert direct.variance == Fraction(r - 1, 4)


def test_closed_moments_are_root5_values():
    mean, variance = closed_moments("C", 8)
    assert isinstance(mean, Root5)
    assert isinstance(variance, Root5)
    # the surd parts cancel only in the final fraction conversion
    assert mean.as_fraction() == Fraction(1812, 235)


def test_nonrational_root5_rejects_fraction_conversion():
    with pytest.raises(NonRationalResult):
        Root5(1, 1).as_fraction()


def test_mean_increment_approaches_limit():
    # successive highest-root mean increments converge geometrically to
    # (7 + sqrt5)/10; the mean/rank ratio itself only converges like 1/r
    limit = float(MEAN_GROWTH_LIMIT)
    assert abs(limit - 0.9236067977499) < 1e-12
    for fam in ("B", "C", "D"):
        prev = closed_moments(fam, 199)[0].as_fraction()
        curr = closed_moments(fam, 200)[0].as_fraction()
        assert abs(float(curr - prev) - limit) < 1e-6, fam
        # document why the raw ratio test is NOT the right check at rank 200:
        # the intercept term keeps mean/r about 1.6e-3 away from the limit
        assert abs(float(curr) / 200 - limit) > 1e-4, fam


def test_mean_increment_monotone_convergence():
    gaps = []
    for r in range(10, 26):
        prev = closed_moments("B", r - 1)[0].as_fraction()
        curr = closed_moments("B", r)[0].as_fraction()
        gaps.append(abs(float(curr - prev) - float(MEAN_GROWTH_LIMIT)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
