"""Ring/field axioms and canonical forms for the exact arithmetic layer."""

import random
from fractions import Fraction

import pytest

from qkostant import NonRationalResult, QPoly, Root5, closedform, stats
from qkostant.polyring import jet_at_one, power_sums, unpack_fields

rng = random.Random(20210)


def rand_poly(max_deg=6, lo=-5, hi=5):
    return QPoly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg + 1))])


def test_canonical_form():
    assert QPoly((1, 0, 0)) == QPoly((1,))
    assert QPoly(()).is_zero
    assert QPoly((0, 0)).is_zero
    assert QPoly((0, 1)).degree == 1
    assert QPoly.zero().degree == -1


def test_floats_rejected():
    with pytest.raises(TypeError):
        QPoly((1.5,))
    with pytest.raises(TypeError):
        QPoly((True,))
    # coefficients are integers only; a Fraction is refused even when whole
    with pytest.raises(TypeError):
        QPoly((Fraction(4, 2),))
    with pytest.raises(TypeError):
        QPoly((Fraction(1, 2), 1))
    # Root5 parts are ints or Fractions: a float is not silently made exact
    for bad in (0.1, True, "1/3", QPoly((1,))):
        with pytest.raises(TypeError):
            Root5(bad)
        with pytest.raises(TypeError):
            Root5(1, bad)


def test_ring_axioms_sampled():
    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QPoly.zero() == a
        assert a * QPoly.one() == a
        assert a - a == QPoly.zero()


def test_pow_and_shift():
    for _ in range(30):
        a = rand_poly(4)
        n = rng.randint(0, 5)
        expect = QPoly.one()
        for _ in range(n):
            expect = expect * a
        assert a ** n == expect
    bases = (QPoly((1, 1)), QPoly((2, 2, 1)), QPoly((0, -3, 0, 1)))
    for base in bases:
        expect = QPoly.one()
        for n in range(21):
            assert base ** n == expect, (base, n)
            expect = expect * base
    p = rand_poly()
    assert p.shifted(3) == p * QPoly.term(1, 3)


def test_unpack_fields_round_trip():
    assert unpack_fields(0, 8) == []
    for _ in range(60):
        top = rng.choice([1, 2, 255, 256, 2 ** 40, 3 ** 90])
        coeffs = [rng.choice([0, top, rng.randint(0, top)]) for _ in range(rng.randint(1, 30))]
        coeffs[-1] = rng.randint(1, top)
        for width in {top.bit_length(), -(-top.bit_length() // 8) * 8}:
            packed = QPoly(coeffs)(2 ** width)
            assert unpack_fields(packed, width) == coeffs, (coeffs, width)


def test_power_sums_and_jet():
    assert power_sums([], 4) == [0] * 5
    assert jet_at_one(()) == (0, 0, 0)
    local = random.Random(4242)
    for _ in range(40):
        coeffs = [local.randint(-10 ** 20, 10 ** 20) for _ in range(local.randint(0, 31))]
        assert power_sums(coeffs, 4) == [
            sum(k ** j * c for k, c in enumerate(coeffs)) for j in range(5)]
        p, d = QPoly(coeffs), QPoly(coeffs).derivative()
        assert jet_at_one(coeffs) == (p(1), d(1), d.derivative()(1) // 2)


def test_eval_exact():
    p = QPoly((1, 2, 3))
    assert p(1) == 6
    assert p(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)
    assert p(0) == 1
    assert QPoly.zero()(7) == 0


def test_derivative_product_rule():
    for _ in range(50):
        a, b = rand_poly(4), rand_poly(4)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_str_rendering():
    assert str(QPoly((0, 1, 1, 1))) == "q + q^2 + q^3"
    assert str(QPoly((1, -2))) == "1 - 2*q"
    assert str(QPoly.zero()) == "0"


def rand_root5():
    return Root5(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 5)))


def test_root5_field_axioms_sampled():
    for _ in range(100):
        x, y, z = rand_root5(), rand_root5(), rand_root5()
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        if y != Root5(0):
            assert (x / y) * y == x
    root = Root5(0, 1)
    assert root * root == Root5(5)


def test_root5_rationality():
    assert Root5(Fraction(3, 2)).as_fraction() == Fraction(3, 2)
    with pytest.raises(NonRationalResult):
        Root5(1, 1).as_fraction()
    assert abs(float(Root5(0, 1)) - 5 ** 0.5) < 1e-15


def test_root5_pow():
    phi2 = Root5(Fraction(3, 2), Fraction(1, 2))  # (3 + sqrt5)/2
    assert phi2 ** 0 == Root5(1)
    assert phi2 ** 2 == phi2 * phi2
    assert phi2 ** -1 == Root5(1) / phi2
    # the same square-and-multiply over the explicit route's q^2 + 4 surds
    qsurd = closedform._QSurd
    bases = (phi2, Root5(-1, 2), Root5(Fraction(2, 3)),
             closedform._TWO_BETA_PLUS, qsurd(QPoly((1, -1)), QPoly((0, 0, 2))))
    for base in bases:
        expect = type(base)(1)
        for n in range(21):
            assert base ** n == expect, (base.a, base.b, n)
            expect = expect * base


def test_int_parts_stay_int():
    x = Root5(3, -2)
    for v in (x + x, x - 1, 2 - x, -x, x * x, x * 7, x ** 5, x.conjugate(), x ** 0):
        assert type(v.a) is int and type(v.b) is int, v
    assert type(x.norm()) is int
    # closed_moments' powers of 5 +/- sqrt(5), and the explicit route's QPoly parts
    assert all(type(part) is int for v in stats._power_pair(40) for part in (v.a, v.b))
    assert type((closedform._TWO_BETA_PLUS ** 3).b) is QPoly
    assert Root5(6).as_fraction() == Fraction(6) and type(Root5(6).as_fraction()) is Fraction
    # division is where the field is needed
    assert (x / 2).a == Fraction(3, 2)
