"""Product, generating-function, and surd routes against the oracle."""

import random
from fractions import Fraction

import pytest

from qkostant import closedform, holonomic, kronecker
from qkostant import (
    InternalCancellationFailure,
    InvalidSupport,
    MIN_RANK,
    QPoly,
    RankTooSmall,
    Root5,
    SupportSpec,
    build_root_system,
    check_bender_conditions,
    explicit_qpoly,
    gf_coefficient,
    iter_support_specs,
    product_qpoly,
    qanalog,
    weight_of,
)
from qkostant.polyring import jet_at_one

rng = random.Random(5150)


# ---------------------------------------------------------------- SupportSpec

def test_spec_accepts_valid_patterns():
    SupportSpec("A", 3, ((2, 1),))
    SupportSpec("A", 8, ((2, 3), (5, 1), (7, 2)))
    SupportSpec("B", 5, ((2, 2),))
    SupportSpec("C", 7, ((2, 1), (4, 3)))
    SupportSpec("D", 9, ((3, 1), (6, 2)))
    SupportSpec("A", 1, ())  # bare all-ones weight, no bumps


def test_spec_rejects_bad_patterns():
    with pytest.raises(ValueError):
        SupportSpec("E", 6, ())
    with pytest.raises(RankTooSmall):
        SupportSpec("B", 1, ())
    with pytest.raises(InvalidSupport):
        SupportSpec("C", 4, ())  # below the rank-5 floor for bump patterns
    with pytest.raises(InvalidSupport):
        SupportSpec("A", 5, ((1, 1),))  # touches the left edge
    with pytest.raises(InvalidSupport):
        SupportSpec("A", 5, ((5, 1),))  # touches the right edge
    with pytest.raises(InvalidSupport):
        SupportSpec("B", 6, ((4, 1),))  # interior for B6 is [2, 3]
    with pytest.raises(InvalidSupport, match="indices 3 and 4 are consecutive"):
        SupportSpec("A", 8, ((3, 1), (4, 1)))  # consecutive
    with pytest.raises(InvalidSupport, match="strictly increase, got 5 then 3"):
        SupportSpec("A", 9, ((5, 1), (3, 1)))  # decreasing
    with pytest.raises(InvalidSupport, match="strictly increase, got 3 then 3"):
        SupportSpec("A", 9, ((3, 1), (3, 1)))  # repeated
    with pytest.raises(InvalidSupport):
        SupportSpec("A", 8, ((5, 1), (3, 1)))  # out of order
    with pytest.raises(InvalidSupport):
        SupportSpec("A", 8, ((3, 0),))  # zero extra
    # int() would read 2.7 as 2 or True as 1: a different weight
    for entries in (((2.7, 1.9),), (("3", True),), ((3, 1.0),), ((True, 1),), ((3, False),)):
        with pytest.raises(TypeError):
            SupportSpec("A", 7, entries)


def test_weight_of_and_counters():
    spec = SupportSpec("A", 6, ((2, 2), (5, 1)))
    assert weight_of(spec) == (1, 3, 1, 1, 2, 1)
    assert spec.bump_count == 2
    assert spec.total_extra == 3


def test_iter_support_specs_deterministic_and_complete():
    first = list(iter_support_specs("A", 7))
    second = list(iter_support_specs("A", 7))
    assert first == second
    assert len(first) == len(set(first))
    # rank 7 type A interior is {2..6}: 1 empty, 5 singles, 6 nonconsecutive
    # pairs, with 3 extras per bumped index
    assert len(first) == 1 + 5 * 3 + 6 * 9
    assert all(s.bump_count <= 2 for s in first)
    assert list(iter_support_specs("B", 4)) == []


# ------------------------------------------------------------- product route

def test_product_matches_oracle():
    for t, r in [("A", 5), ("A", 8), ("B", 5), ("B", 7), ("C", 6), ("D", 8)]:
        system = build_root_system(t, r)
        specs = list(iter_support_specs(t, r))
        for spec in rng.sample(specs, min(12, len(specs))):
            assert product_qpoly(spec) == qanalog(system, weight_of(spec)), spec


def test_product_total_count():
    # the bump family has at most 2 bumps; add every 3-bump spec of A9
    # with one extra copy per bump
    three = [SupportSpec("A", 9, ((i, 1), (j, 1), (k, 1)))
             for i in range(2, 9) for j in range(i + 2, 9) for k in range(j + 2, 9)]
    for spec in [*iter_support_specs("A", 9), *three]:
        r, ell = spec.rank, spec.bump_count
        assert product_qpoly(spec)(1) == 2 ** (r - 1 - 2 * ell) * 5 ** ell


def test_product_total_count_at_rank_500():
    for entries in [(), ((2, 1),), ((10, 3), (100, 1), (250, 2), (497, 1))]:
        spec = SupportSpec("A", 500, entries)
        ell = spec.bump_count
        assert product_qpoly(spec)(1) == 2 ** (500 - 1 - 2 * ell) * 5 ** ell


def test_binomial_row_matches_power():
    for n in range(201):
        assert closedform._binomial_row(n) == QPoly((1, 1)) ** n, n


def test_product_shape():
    spec = SupportSpec("A", 6, ((3, 2),))
    # q^3 (1+q)^3 (2+2q+q^2)
    assert product_qpoly(spec) == QPoly.term(1, 3) * QPoly((1, 1)) ** 3 * QPoly((2, 2, 1))


# --------------------------------------------------- generating-function route

def test_gf_seed_values():
    assert gf_coefficient("B", 0) == QPoly.zero()
    assert gf_coefficient("B", 1) == QPoly.q()
    assert gf_coefficient("C", 1) == QPoly.q()
    assert gf_coefficient("D", 4) == QPoly((0, 1, 4, 6, 3, 1))
    # first nontrivial B value: (2+2q+q^2) q + (-q-q^2) = q + q^2 + q^3
    assert gf_coefficient("B", 2) == QPoly((0, 1, 1, 1))


def test_gf_recurrence_holds():
    for fam, lo in [("B", 4), ("C", 3), ("D", 6)]:
        for r in range(lo, 40):
            lhs = gf_coefficient(fam, r)
            rhs = QPoly((2, 2, 1)) * gf_coefficient(fam, r - 1) - QPoly(
                (1, 2, 1, 1)
            ) * gf_coefficient(fam, r - 2)
            assert lhs == rhs, (fam, r)


def test_gf_matches_oracle_on_highest_roots():
    for fam, lo in [("B", 2), ("C", 3), ("D", 4)]:
        for r in range(lo, lo + 5):
            system = build_root_system(fam, r)
            assert gf_coefficient(fam, r) == qanalog(system, system.highest_root)


def test_gf_matches_plain_recurrence_from_rank_0():
    # the recurrence on QPoly values, with the formal values below each
    # family's Lie minimum included
    for fam in "BCD":
        numerators = closedform._GF_NUMERATORS[fam]
        prev2 = prev1 = QPoly.zero()
        for r in range(81):
            if r:
                term = QPoly((2, 2, 1)) * prev1 - QPoly((1, 2, 1, 1)) * prev2
                prev2, prev1 = prev1, term + numerators.get(r, QPoly.zero())
            assert all(c >= 0 for c in prev1.coeffs), (fam, r)
            assert gf_coefficient(fam, r) == prev1, (fam, r)


@pytest.mark.parametrize("fam, k, entry, rank, failing_check", [
    # a -1 constant term borrows from the q field: fields sum past P(1)
    ("D", 5, QPoly((-1, -1, -4, -6, -5, -3, -1)), 5, "summing to"),
    ("D", 5, QPoly((-1, -1, -4, -6, -5, -3, -1)), 12, "summing to"),
    # a negative top coefficient makes the packed value negative
    ("C", 1, QPoly((0, 1, 0, 0, 0, -1)), 1, "negative"),
    ("C", 1, QPoly((0, 1, 0, 0, 0, -1)), 9, "negative"),
])
def test_gf_negative_coefficient_fails_loudly(monkeypatch, fam, k, entry, rank, failing_check):
    numerators = dict(closedform._GF_NUMERATORS[fam])
    numerators[k] = entry
    monkeypatch.setitem(closedform._GF_NUMERATORS, fam, numerators)
    with pytest.raises(InternalCancellationFailure, match=failing_check):
        gf_coefficient(fam, rank)


def test_highest_qpoly_matches_gf_and_explicit_at_shuffled_ranks():
    # highest_qpoly serves every rank at or above the Lie minimum as gf does
    for fam in "BCD":
        ranks = list(range(0, 60, 3)) + [7, 7, 41, 0, 120]
        rng.shuffle(ranks)
        for r in ranks:
            if r >= MIN_RANK[fam]:
                assert closedform.highest_qpoly(fam, r) == gf_coefficient(fam, r), (fam, r)
    for r in [9, 1, 30, 9, 4]:
        assert closedform.highest_qpoly("A", r) == explicit_qpoly("A", r), r


def test_gf_rejects_bad_input():
    with pytest.raises(ValueError):
        gf_coefficient("A", 3)
    with pytest.raises(ValueError):
        gf_coefficient("B", -1)
    with pytest.raises(ValueError):
        gf_coefficient("C", -1)
    with pytest.raises(RankTooSmall):
        closedform.highest_qpoly("C", 2)
    with pytest.raises(ValueError):
        closedform.gf_jet("A", 3)
    with pytest.raises(ValueError):
        closedform.gf_jet("D", -1)
    with pytest.raises(RankTooSmall):
        closedform.highest_jet("D", 3)


def _jet(p):
    """(P(1), P'(1), P''(1)/2) by differentiating the polynomial."""
    d = p.derivative()
    return p(1), d(1), d.derivative()(1) // 2


def test_gf_jets_match_the_decoded_polynomials():
    ranks = list(range(81)) + [250, 513, 7, 7, 0, 513]
    random.Random(808).shuffle(ranks)
    for fam in "BCD":
        for r in ranks:
            assert closedform.gf_jet(fam, r) == _jet(gf_coefficient(fam, r)), (fam, r)
            if r >= MIN_RANK[fam]:
                assert closedform.highest_jet(fam, r) == _jet(
                    closedform.highest_qpoly(fam, r)), (fam, r)
    for r in [9, 1, 30, 9, 4, 200]:
        assert closedform.highest_jet("A", r) == _jet(explicit_qpoly("A", r)), r


def test_type_a_jet_is_the_closed_form():
    jets = [closedform.highest_jet("A", r) for r in (1, 2, 3)]
    assert jets == [(1, 1, 0), (2, 3, 1), (4, 8, 5)]
    for r in range(1, 301):
        assert closedform.highest_jet("A", r) == jet_at_one(explicit_qpoly("A", r).coeffs), r


def test_gf_decode_checks_the_derivatives(monkeypatch):
    # swapping two unequal adjacent fields keeps their sum but moves P'(1)
    real_unpack = kronecker.unpack_fields

    def swapped(packed, width):
        coeffs = real_unpack(packed, width)
        k = next(k for k in range(len(coeffs) - 1) if coeffs[k] != coeffs[k + 1])
        coeffs[k], coeffs[k + 1] = coeffs[k + 1], coeffs[k]
        return coeffs

    monkeypatch.setattr(kronecker, "unpack_fields", swapped)
    with pytest.raises(InternalCancellationFailure, match=r"B30 .*P'\(1\)"):
        gf_coefficient("B", 30)


# ---------------------------------------------------------------- surd route

def test_beta_vieta_identities():
    # 2*beta_plus/minus = T +/- X*s with s*s = D = q^2 + 4, on their QPoly parts
    t, x, d = closedform._T, closedform._X, closedform._D
    p = QPoly((2, 2, 1))
    assert (t, x, d) == (p, QPoly.q(), QPoly((4, 0, 1)))
    # the sum is 2T and the product (norm) T^2 - X^2 D = 4 (1 + 2q + q^2 + q^3),
    # four times the gf denominator's x^2 coefficient
    c = QPoly((1, 2, 1, 1)) * 4
    assert t * t - x * x * d == c
    # each 2*beta solves y^2 - 2(2+2q+q^2) y + 4(1+2q+q^2+q^3) = 0: y = T +/- X*s
    # gives (T^2 + X^2 D - 2pT + c) +/- (2TX - 2pX)*s, and both parts vanish
    assert t * t + x * x * d - 2 * p * t + c == 0
    assert 2 * t * x - 2 * p * x == 0


def test_shared_recurrence_checks_the_shift_polynomials(monkeypatch):
    assert closedform.shared_recurrence() == (True, {"B": 2, "C": 1, "D": 4})
    # 2*beta_plus is no root once S2 is off by q^3
    monkeypatch.setattr(closedform, "_GF_SHIFTS", (QPoly((2, 2, 1)), QPoly((1, 2, 1, 2))))
    assert closedform.shared_recurrence()[0] is False


def test_explicit_type_a():
    assert explicit_qpoly("A", 1) == QPoly.q()
    assert explicit_qpoly("A", 4) == QPoly.q() * QPoly((1, 1)) ** 3


def test_explicit_matches_gf_far_out():
    for fam, lo in [("B", 2), ("C", 1), ("D", 4)]:
        for r in [*range(lo, 50), 100, 160, 300]:
            assert explicit_qpoly(fam, r) == gf_coefficient(fam, r), (fam, r)


@pytest.mark.parametrize("fam", ["B", "C", "D"])
@pytest.mark.parametrize("bump, failing_check", [(1, r"2\^6"), (2, r"q\^2\+4")])
def test_explicit_perturbed_numerator_fails_loudly(monkeypatch, fam, bump, failing_check):
    # an odd bump of A's constant term breaks divisibility by 2^e, an even
    # one keeps it and breaks divisibility by q^2 + 4
    a_coeffs, b_coeffs, shift = closedform.EXPLICIT[fam]
    perturbed = (a_coeffs[0] + bump,) + a_coeffs[1:]
    monkeypatch.setitem(closedform.EXPLICIT, fam, (perturbed, b_coeffs, shift))
    with pytest.raises(InternalCancellationFailure, match=failing_check):
        explicit_qpoly(fam, shift + 6)


def test_explicit_rank_floors():
    with pytest.raises(RankTooSmall):
        explicit_qpoly("A", 0)
    with pytest.raises(RankTooSmall):
        explicit_qpoly("B", 1)
    with pytest.raises(RankTooSmall):
        explicit_qpoly("C", 0)
    with pytest.raises(RankTooSmall):
        explicit_qpoly("D", 3)
    with pytest.raises(ValueError):
        explicit_qpoly("G", 2)


@pytest.mark.parametrize("negate, failing_check", [
    # -A*a + B*D*b is divisible by 2^e and q^2 + 4, with negative coefficients
    ("A", "summing to"),
    # -(A*a + B*D*b) is the whole surd sum negated
    ("AB", "negative"),
])
def test_explicit_negative_surd_sum_fails_loudly(monkeypatch, negate, failing_check):
    a_coeffs, b_coeffs, shift = closedform.EXPLICIT["B"]
    a_coeffs = tuple(-c for c in a_coeffs)
    if "B" in negate:
        b_coeffs = tuple(-c for c in b_coeffs)
    monkeypatch.setitem(closedform.EXPLICIT, "B", (a_coeffs, b_coeffs, shift))
    for rank in (8, 40):
        with pytest.raises(InternalCancellationFailure, match=f"B{rank} .*{failing_check}"):
            explicit_qpoly("B", rank)


def test_closed_routes_refuse_a_rank_that_is_not_an_int():
    # True would be read as rank 1, and C1's polynomial q returned
    for rank in (True, False, 5.0, "5"):
        for route in (gf_coefficient, closedform.gf_jet, explicit_qpoly):
            for fam in ("A", "B", "C", "D") if route is explicit_qpoly else "BCD":
                with pytest.raises(TypeError, match="^rank must be an int$"):
                    route(fam, rank)


def test_explicit_multiplies_no_long_qpolys(monkeypatch):
    # the surd power runs on packed integers: no QPoly product has two
    # factors of 16 or more coefficients
    long_products = []
    real_mul = QPoly.__mul__

    def counting_mul(self, other):
        if isinstance(other, QPoly) and min(len(self.coeffs), len(other.coeffs)) >= 16:
            long_products.append((len(self.coeffs), len(other.coeffs)))
        return real_mul(self, other)

    monkeypatch.setattr(QPoly, "__mul__", counting_mul)
    for lie_type, rank in (("C", 161), ("B", 800)):
        got = explicit_qpoly(lie_type, rank)
        assert long_products == [], (lie_type, rank)
    monkeypatch.undo()
    assert got.coeffs == holonomic.holonomic_qpoly("B", 800).coeffs


def test_cancellation_failure_is_loud():
    # InternalCancellationFailure deliberately sits outside the package's
    # input-error hierarchy so callers cannot swallow it by accident
    from qkostant.errors import KostantError

    assert issubclass(InternalCancellationFailure, RuntimeError)
    assert not issubclass(InternalCancellationFailure, KostantError)


# ----------------------------------------------------------- holonomic route

_FAR_RANK = {"B": 200, "C": 201, "D": 202}


def test_holonomic_route_matches_gf_and_explicit():
    for fam in "BCD":
        for r in (*range(MIN_RANK[fam], 61), _FAR_RANK[fam]):
            got = closedform.highest_qpoly(fam, r)
            assert got == gf_coefficient(fam, r), (fam, r)
            assert got == explicit_qpoly(fam, r), (fam, r)


def test_ode_tables_annihilate_the_gf_polynomials():
    for fam in "BCD":
        shift = closedform.EXPLICIT[fam][2]
        for r in (*range(MIN_RANK[fam], 61), _FAR_RANK[fam]):
            p = gf_coefficient(fam, r)
            c0, c1, c2 = (QPoly(c) for c in holonomic._ode_at(fam, r - shift))
            d = p.derivative()
            assert c2 * d.derivative() + c1 * d + c0 * p == QPoly.zero(), (fam, r)
        # q-degree at most 11, e-degree at most 3, and c2 linear in e
        tables = holonomic._ODE[fam]
        assert max(len(t) for t in tables) <= 12, fam
        assert max(len(row) for t in tables for row in t) <= 4, fam
        assert max(len(row) for row in tables[2]) <= 2, fam


def test_recurrence_leading_factor():
    # u + n*v + n*(n-1)*w for the p_n term: 8(n-1)(n-2) for B and D,
    # (16e+8)(n-1)(n-2) for C, so p1 and p2 are free and p_n is solvable
    # for every n >= 3
    for fam in "BCD":
        for e in (0, 1, 7, 500):
            c0, c1, c2 = holonomic._ode_at(fam, e)
            u, v, w = c0[0], c1[1], c2[2]
            scale = 16 * e + 8 if fam == "C" else 8
            for n in range(12):
                assert u + n * v + n * (n - 1) * w == scale * (n - 1) * (n - 2), (fam, e, n)


def _perturbed(fam, k, j, i, delta):
    """holonomic._ODE[fam] with delta added to c_k's q**j e**i entry."""
    tables = [list(t) for t in holonomic._ODE[fam]]
    row = list(tables[k][j]) + [0] * (i + 1 - len(tables[k][j]))
    row[i] += delta
    tables[k][j] = tuple(row)
    return tuple(tuple(t) for t in tables)


@pytest.mark.parametrize("fam, k, j, i, delta, failing_check", [
    ("B", 0, 0, 0, 1, "remainder"),
    ("D", 2, 5, 1, -1, "remainder"),
    ("D", 0, 1, 2, 1, "negative"),
    ("B", 0, 0, 0, -16, "zero leading factor"),
    ("C", 1, 0, 0, 1, "divisible by q"),
    ("D", 2, 1, 2, 1, "divisible by q"),
])
def test_holonomic_perturbed_table_fails_loudly(monkeypatch, fam, k, j, i, delta, failing_check):
    monkeypatch.setitem(holonomic._ODE, fam, _perturbed(fam, k, j, i, delta))
    with pytest.raises(InternalCancellationFailure, match=f"{fam}40 .*{failing_check}"):
        closedform.highest_qpoly(fam, 40)


def test_seeds_are_the_low_gf_coefficients():
    # (0, 1, hv - 2): 2r - 3 for B, r - 1 for C, 2r - 4 for D
    for fam in "BCD":
        for r in range(MIN_RANK[fam], 61):
            assert holonomic._seed(fam, r) == gf_coefficient(fam, r).coeffs[:3], (fam, r)


@pytest.mark.parametrize("fam", "BCD")
@pytest.mark.parametrize("delta", (1, -1))
def test_holonomic_perturbed_seed_fails_loudly(monkeypatch, fam, delta):
    real_seed = holonomic._seed

    def off_by_one(lie_type, rank):
        p0, p1, p2 = real_seed(lie_type, rank)
        return p0, p1, p2 + delta

    monkeypatch.setattr(holonomic, "_seed", off_by_one)
    with pytest.raises(InternalCancellationFailure, match=f"{fam}40 .*remainder"):
        closedform.highest_qpoly(fam, 40)


def test_no_table_perturbation_returns_a_polynomial(monkeypatch):
    # every entry, including one e-degree past each row, moved by +-1: the
    # route must raise, never return
    for fam in "BCD":
        real = holonomic._ODE[fam]
        for k, table in enumerate(real):
            for j, row in enumerate(table):
                for i in range(len(row) + 1):
                    for delta in (1, -1):
                        monkeypatch.setitem(holonomic._ODE, fam,
                                            _perturbed(fam, k, j, i, delta))
                        with pytest.raises(InternalCancellationFailure):
                            closedform.highest_qpoly(fam, 40)
                        monkeypatch.setitem(holonomic._ODE, fam, real)


@pytest.mark.parametrize("slot, failing_check", [(0, r"P\(1\) ="), (1, r"P'\(1\)")])
def test_holonomic_checks_the_gf_jet(monkeypatch, slot, failing_check):
    real_jet = closedform.gf_jet

    def off_by_one(lie_type, rank):
        j = real_jet(lie_type, rank)
        return j[:slot] + (j[slot] + 1,) + j[slot + 1:]

    monkeypatch.setattr(closedform, "gf_jet", off_by_one)
    with pytest.raises(InternalCancellationFailure, match=f"D30 .*{failing_check}"):
        closedform.highest_qpoly("D", 30)


# ------------------------------------------------------------- CLT hypotheses

def test_bender_conditions():
    report = check_bender_conditions()
    assert report.passed
    assert report.small_root + report.large_root == Root5(1)
    assert report.small_root * report.large_root == Root5(Fraction(1, 5))
    assert float(report.small_root) < float(report.large_root)
    assert report.numerator_values["B"] == Root5(Fraction(1, 10), Fraction(1, 50))
    assert report.numerator_values["C"] == Root5(Fraction(-1, 10), Fraction(1, 10))
    assert report.numerator_values["D"] == Root5(Fraction(1, 10), Fraction(-1, 50))
