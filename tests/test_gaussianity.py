"""Normality diagnostics: exactness of the inner arithmetic, float sanity."""

import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from qkostant import (
    DEFAULT_T_GRID,
    DegenerateDistribution,
    InvalidSupport,
    QPoly,
    RankTooSmall,
    SupportSpec,
    ZeroDistribution,
    convergence_sweep,
    family_poly,
    gf_coefficient,
    normal_cdf,
    summarize,
)
from qkostant import cli, gaussianity
from qkostant.closedform import highest_qpoly

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


def test_large_rank_mgf_error_is_finite():
    # degree 2599, with coefficients over 1024 bits that no float holds; the
    # error at t = 1 tracks skewness/6 (about 0.002 here)
    g = highest_qpoly("B", 1300)
    assert max(g.coeffs).bit_length() > 1024
    s = summarize(g, t_grid=(-1.0, 1.0))
    assert all(math.isfinite(e) for _, e in s.mgf_errors)
    assert s.max_mgf_error < 3e-3


def _reference_values(g, t_grid):
    """Skewness, excess kurtosis and every |log M(t) - t*t/2| of g as
    50-digit Decimals, from direct centred sums.

    With d_k = k*g1 - sum(k*c_k) and n_j = sum(c_k * d_k**j), the central
    moments are n_j / g1**(j+1), and M(t) = sum(c_k/g1 * e**(d_k*t*s)) with
    s = sqrt(g1/n2): a different evaluation from the package's.
    """
    g1 = sum(g.coeffs)
    s1 = sum(k * c for k, c in enumerate(g.coeffs))
    centred = [(k * g1 - s1, c) for k, c in enumerate(g.coeffs) if c]
    n2, n3, n4 = (sum(c * d ** j for d, c in centred) for j in (2, 3, 4))
    with localcontext(Context(prec=50)):
        skew = Decimal(n3) * Decimal(g1).sqrt() / (Decimal(n2) * Decimal(n2).sqrt())
        kurt = Fraction(n4 * g1, n2 * n2) - 3
        floats = [skew, Decimal(kurt.numerator) / kurt.denominator]
        scale = (Decimal(g1) / n2).sqrt()
        probs = [(d * scale, Decimal(c) / g1) for d, c in centred]
        for t in t_grid:
            t_d = Decimal(t)
            m = sum(p * (x * t_d).exp() for x, p in probs)
            floats.append(abs(m.ln() - t_d * t_d / 2))
    return floats


def _printed(x):
    """x rounded to the 12 significant digits %.12g prints, from its exact value."""
    return float(format(Decimal(x), ".11e"))


_GOLDEN_T = (1000.0, 5000.0, -5000.0)


@pytest.mark.parametrize("family, ranks, t_grid, bumps", [
    ("A", (10, 20), (0.5, 1.0, -0.25), 0),
    ("D", (12, 40), DEFAULT_T_GRID, 0),
    ("product", (8, 12), DEFAULT_T_GRID, 2),
    ("B", (30,), _GOLDEN_T, 0),
    ("C", (30,), _GOLDEN_T, 0),
    *((family, (100, 400), DEFAULT_T_GRID, 2 if family == "product" else 0)
      for family in ("A", "B", "C", "D", "product")),
])
def test_printed_digits_match_a_50_digit_reference(family, ranks, t_grid, bumps):
    # every skewness, excess kurtosis and MGF error converge prints, through
    # %.12g, equals the 50-digit reference rounded the same way
    for s in convergence_sweep(family, ranks, t_grid, bumps=bumps):
        got = [s.skewness, s.excess_kurtosis, *(e for _, e in s.mgf_errors)]
        want = _reference_values(family_poly(family, s.rank, bumps), t_grid)
        assert list(map(_printed, got)) == list(map(_printed, want)), (family, s.rank)


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
        bumps = 2 if family == "product" else 0
        for rank in (20, 80, 320):
            s = summarize(family_poly(family, rank, bumps=bumps), t_grid=(1e-3,))
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
    with pytest.raises(InvalidSupport, match="--bumps only applies to the product family"):
        family_poly("B", 20, bumps=2)


def _refusal(call, *args):
    try:
        call(*args)
    except InvalidSupport as exc:
        return str(exc)
    return None


def test_product_family_refuses_exactly_what_support_spec_refuses():
    # family_poly bumps indices 2, 4, ..., 2*bumps by one; it refuses a rank
    # where SupportSpec refuses that pattern, with its own message
    for rank in range(1, 41):
        for bumps in range(21):
            entries = tuple((2 * i, 1) for i in range(1, bumps + 1))
            spec = _refusal(SupportSpec, "A", rank, entries)
            family = _refusal(family_poly, "product", rank, bumps)
            assert (family is None) == (spec is None), (rank, bumps)
            if family is not None:
                assert family == (f"product family with --bumps {bumps} needs rank > "
                                  f"{2 * bumps}, got {rank}")


def test_family_poly_refuses_a_bump_count_that_is_not_an_int():
    # True would be read as one bump, and 1.0 reach range() as a float
    for bumps in (True, 1.0):
        with pytest.raises(TypeError, match="bump count must be an int"):
            family_poly("product", 7, bumps)
        with pytest.raises(TypeError, match="bump count must be an int"):
            convergence_sweep("product", (7,), bumps=bumps)


def test_sweep_refuses_bumps_outside_the_product_family():
    for family in "ABCD":
        with pytest.raises(InvalidSupport, match="--bumps only applies to the product family"):
            convergence_sweep(family, (20,), bumps=1)
    # checked before any rank, so a bad rank does not mask it
    with pytest.raises(InvalidSupport, match="--bumps"):
        convergence_sweep("B", (20, 1), bumps=2)


def test_sweep_refuses_a_bad_rank_before_building_any_polynomial(monkeypatch, capsys):
    def built(*args):
        raise AssertionError("a polynomial was built before every rank was checked")

    monkeypatch.setattr(gaussianity, "highest_qpoly", built)
    monkeypatch.setattr(gaussianity, "product_qpoly", built)
    with pytest.raises(RankTooSmall):
        convergence_sweep("B", (600, 1))
    with pytest.raises(InvalidSupport):
        convergence_sweep("product", (20, 3), bumps=2)
    # both are input errors, so the CLI exits 2 without printing a row
    for argv in (["--family", "B", "--ranks", "600,1"],
                 ["--family", "product", "--ranks", "20,3", "--bumps", "2"]):
        assert cli.main(["converge", *argv]) == cli.EXIT_BAD_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:"), argv


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
