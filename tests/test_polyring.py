"""Ring/field axioms and canonical forms for the exact arithmetic layer."""

import copy
import math
import random
from fractions import Fraction

import pytest

from qkostant import NonRationalResult, QPoly, Root5, closedform, polyring, stats
from qkostant.kronecker import unpack_fields
from qkostant.polyring import jet_at_one, power_sums

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


class _Int(int):
    pass


def test_qpoly_constructor_type_fallback():
    # an int subclass other than bool is an int coefficient, in any position
    for cs in ((_Int(3), 1, 2), (3, _Int(1), 2), (3, 1, _Int(2))):
        assert QPoly(cs).coeffs == (3, 1, 2)
    # bool, float and Fraction are refused first, in the middle or last,
    # with the message the per-coefficient check gives
    for bad in (True, 1.0, Fraction(1)):
        message = f"^int coefficient required, got {type(bad).__name__}$"
        for cs in ((bad, 1, 2), (1, bad, 2), (1, 2, bad), (_Int(1), bad)):
            with pytest.raises(TypeError, match=message):
                QPoly(cs)


def test_surd_results_keep_their_class():
    # negation, sum, product and conjugate skip the part check; the public
    # constructor keeps it
    for x in (Root5(Fraction(1, 3), 2), closedform._QSurd(QPoly((1, 1)), QPoly((0, 1)))):
        for y in (-x, x + x, x * x, x.conjugate(), x - 1):
            assert type(y) is type(x)
        assert -x == type(x)(-x.a, -x.b)
        assert x.conjugate() == type(x)(x.a, -x.b)
    with pytest.raises(TypeError, match="Root5 part of type bool refused"):
        Root5(True)


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


def _double_loop(a, b):
    """The product of two coefficient sequences, schoolbook, trailing zeros dropped."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_property_product_matches_double_loop():
    # lengths on both sides of the packing threshold, signed coefficients up
    # to about 600 bits, zeros inside and at either end, and squares of one
    # object (a * a), which pack one factor and square it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    n = polyring._PACKED_MIN_LEN
    big = 1 << 600
    coeff = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-big, big))
    coeffs = st.integers(1, 3 * n).flatmap(lambda k: st.lists(coeff, min_size=k, max_size=k))
    low_zeros = [0] * n + [-big, 5, 0, -1]
    negative_top = [big - 1] * n + [-big]
    # n * m * m, the middle coefficient of [m] * n times itself, is the size
    # bound itself and fills 24 bits, so its field needs a 25th for the sign
    m = math.isqrt(((1 << 24) - 1) // n)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(coeffs, coeffs, st.booleans())
    @hypothesis.example(low_zeros, negative_top + [0, 0], False)
    @hypothesis.example(negative_top, low_zeros, True)
    @hypothesis.example([1] * (n - 1), [-1] * n, False)
    @hypothesis.example([m] * n, [-m] * n, False)
    @hypothesis.example([-m] * n, [], True)
    def check(a, b, square):
        x, y = QPoly(a), QPoly(b)
        if square:
            y = x
        assert (x * y).coeffs == _double_loop(x.coeffs, y.coeffs)

    check()


def test_surd_square_matches_product_with_a_copy():
    # x * x takes the three-product squaring path, x * copy(x) the general one
    qs = closedform._QSurd
    long = QPoly(range(-20, 21))
    for x in (Root5(3, -2), Root5(Fraction(1, 3), Fraction(-5, 7)), Root5(0, 4), Root5(-6),
              qs(QPoly((2, 2, 1)), QPoly((0, 1))), qs(long, QPoly((1, -1))), qs(QPoly(), long),
              closedform._TWO_BETA_PLUS ** 40):
        y = copy.copy(x)
        assert y is not x and y == x
        square = x * x
        assert square == x * y and type(square) is type(x), x


def test_explicit_power_packs_only_its_long_squarings(monkeypatch):
    # _power runs left to right, so every multiply step is by the short
    # 2*beta_plus and only a squaring multiplies two long parts: three packed
    # products for each squaring of (2*beta_plus)**k with k >= 8, the powers
    # whose parts have at least 16 coefficients.  e = 160 squares four such
    # powers (k = 10, 20, 40, 80) and e = 798 six (k = 12, 24, 49, 99, 199, 399).
    calls = []
    packed = polyring.packed_product

    def counting_packed(a, b):
        calls.append((len(a), len(b)))
        return packed(a, b)

    monkeypatch.setattr(polyring, "packed_product", counting_packed)
    for lie_type, rank, products in (("C", 161, 12), ("B", 800, 18)):
        calls.clear()
        g = closedform.explicit_qpoly(lie_type, rank)
        assert len(calls) == products, (lie_type, rank)
    assert g(1) == closedform.highest_jet("B", 800)[0]


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


def test_constants_hash_like_the_ints_they_equal():
    # a value equal to 3 must be found by 3 in a set or dict, and back
    qsurd = closedform._QSurd
    threes = (QPoly((3,)), Root5(3), Root5(Fraction(3)), Root5(Fraction(3), Fraction(0)),
              qsurd(QPoly((3,))), qsurd(3, QPoly.zero()))
    for value in threes:
        assert value == 3
        assert 3 in {value} and value in {3}, repr(value)
        assert {value: "x"}[3] == "x"
    assert 0 in {QPoly.zero()} and Root5(0) in {0}
    # a surd with no s part hashes like that part, polynomial or not
    assert QPoly((1, 2)) in {qsurd(QPoly((1, 2)))}
    assert Root5(3, 1) != 3 and QPoly((3, 1)) != 3


_QS = closedform._QSurd

# (x, 3 - x, x - 3) for each class that takes operands through _coerce
_OPERANDS = [
    pytest.param(QPoly((2, 1)), QPoly((1, -1)), QPoly((-1, 1)), id="QPoly"),
    pytest.param(Root5(2, 1), Root5(1, -1), Root5(-1, 1), id="Root5"),
    pytest.param(_QS(QPoly((2, 1)), QPoly((0, 1))), _QS(QPoly((1, -1)), QPoly((0, -1))),
                 _QS(QPoly((-1, 1)), QPoly((0, 1))), id="QSurd"),
]


@pytest.mark.parametrize("x, three_minus_x, x_minus_three", _OPERANDS)
def test_operand_protocol(x, three_minus_x, x_minus_three):
    # an int operand on either side is made the operand's own type
    assert 3 - x == three_minus_x and type(3 - x) is type(x)
    assert x - 3 == x_minus_three and type(x - 3) is type(x)
    # any other operand is refused: NotImplemented on both sides gives TypeError
    for op in (lambda: x + "a", lambda: "a" + x, lambda: x * "a"):
        with pytest.raises(TypeError):
            op()
    assert (x == "a") is False and (x != "a") is True
    if isinstance(x, Root5):
        assert 2 / x == Root5(-4, 2)  # 2 / (2 + sqrt5) = -2 * (2 - sqrt5)
        with pytest.raises(ZeroDivisionError):
            x / 0
        # Root5 parts are ints or Fractions, so a QPoly is not coerced
        assert (Root5(1) == QPoly((1,))) is False and (QPoly((1,)) == Root5(1)) is False
    if isinstance(x, QPoly):
        with pytest.raises(ValueError):
            x ** -1
