import random
from fractions import Fraction

import pytest

from logseries.exactnum import FixedReal, IntPoly, QuadraticRational, poly_gcd


# ----------------------------------------------------------------------
#  Quadratic fields: Q(i) at d = -1, Q(sqrt 2), and root(d)
# ----------------------------------------------------------------------

def _random_element(rng, d):
    return QuadraticRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)), d)


def test_gaussian_field_ops():
    a = QuadraticRational(Fraction(1, 2), Fraction(3, 4), -1)
    b = QuadraticRational(2, -1, -1)
    assert a + b == QuadraticRational(Fraction(5, 2), Fraction(-1, 4), -1)
    assert a * b == QuadraticRational(Fraction(7, 4), 1, -1)
    assert (a / b) * b == a
    assert a - a == QuadraticRational(0, 0, -1)
    assert a.conjugate().conjugate() == a


def test_gaussian_norm_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        a, b = _random_element(rng, -1), _random_element(rng, -1)
        assert (a * b).norm() == a.norm() * b.norm()


def test_gaussian_pow_and_division():
    i = QuadraticRational(0, 1, -1)
    assert i ** 2 == QuadraticRational(-1, 0, -1)
    assert i ** -1 == QuadraticRational(0, -1, -1)
    z = QuadraticRational(2, 1, -1)
    assert z * z.conjugate() == QuadraticRational(z.norm(), 0, -1)
    with pytest.raises(ZeroDivisionError):
        z / QuadraticRational(0, 0, -1)


def test_gaussian_immutable():
    z = QuadraticRational(1, 2, -1)
    with pytest.raises(AttributeError):
        z.a = Fraction(5)


def test_rational_operand_matches_the_field_product():
    # the two-multiplication path for an int or Fraction operand agrees
    # with the full product by the same value lifted into the field, and
    # the norm is multiplicative, over Q(i) and over Q(sqrt 2)
    rng = random.Random(23)
    for d in (-1, 2):
        for _ in range(50):
            z, w = _random_element(rng, d), _random_element(rng, d)
            for c in (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
                lifted = QuadraticRational(c, 0, d)
                assert z * c == c * z == z * lifted
                assert z + c == c + z == z + lifted
                assert c - z == lifted - z
                if c:
                    assert z / c == z / lifted
            assert (z * w).norm() == z.norm() * w.norm()
            assert z * z.conjugate() == z.norm()


def test_mixing_fields_raises():
    root2, root3 = QuadraticRational.root(2), QuadraticRational.root(3)
    for combine in (lambda x, y: x + y, lambda x, y: x - y,
                    lambda x, y: x * y, lambda x, y: x / y,
                    lambda x, y: x == y):
        with pytest.raises(ValueError, match="d = 2 and d = 3"):
            combine(root2, root3)
    with pytest.raises(ValueError):
        QuadraticRational(0, 1, -1) + root2


def test_hash_agrees_with_equality():
    assert hash(QuadraticRational(Fraction(3, 4), 0, -1)) == hash(Fraction(3, 4))
    assert QuadraticRational(3, 0, 2) == 3
    assert len({QuadraticRational(2, 1, -1), QuadraticRational(2, 1, -1)}) == 1
    assert QuadraticRational.root(2) ** 3 == QuadraticRational(0, 2, 2)


def test_surd_sign_is_exact():
    root2 = QuadraticRational.root(2)
    assert (root2 * root2).b == 0 and (root2 * root2).a == 2
    assert (root2 * -2 + 3).sign() == 1          # 3 - 2 sqrt 2 > 0
    assert (root2 * -1 + Fraction(141421356, 10 ** 8)).sign() == -1
    assert (root2 * 0).sign() == 0
    assert ((root2 + 1) / (root2 + -1)).sign() == 1
    with pytest.raises(ValueError, match="complex"):
        QuadraticRational.root(-3).sign()


def test_detect_rational_basics():
    assert QuadraticRational.root(Fraction(9, 16)).b == 0
    assert QuadraticRational.root(Fraction(9, 16)).a == Fraction(3, 4)
    assert QuadraticRational.root(0).b == 0
    for d in (2, Fraction(1, 2), Fraction(8, 9), -4):
        assert QuadraticRational.root(d).b == 1, d


# ----------------------------------------------------------------------
#  Fixed-point reals
# ----------------------------------------------------------------------

def test_fixed_from_rational_error_bound():
    rng = random.Random(11)
    for _ in range(200):
        x = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
        bits = rng.choice([8, 16, 64, 128])
        f = FixedReal.from_rational(x, bits)
        assert abs(f.to_fraction() - x) <= Fraction(1, 2 ** bits)


def test_fixed_truncates_toward_zero():
    f = FixedReal.from_rational(Fraction(-1, 3), 8)
    assert f.mantissa == -85  # trunc(-256/3) = -85, not floor's -86
    g = FixedReal.from_rational(Fraction(1, 3), 8)
    assert g.mantissa == 85


def test_fixed_decimal_and_compare():
    f = FixedReal.from_rational(Fraction(22, 7), 200)
    assert f.to_decimal(10) == "3.1428571428"
    assert FixedReal(-2 << 32, 32).to_decimal(3) == "-2.000"


def test_fixed_rejects_tiny_precision():
    with pytest.raises(ValueError):
        FixedReal.from_rational(Fraction(1), 4)


# ----------------------------------------------------------------------
#  Polynomials
# ----------------------------------------------------------------------

def test_poly_eval_matches_horner():
    p = IntPoly([Fraction(-297), Fraction(1794)])
    assert p(1) == 1497
    assert p(Fraction(1, 2)) == 600
    assert p.degree() == 1


def test_poly_trims_and_zero():
    assert IntPoly([1, 2, 0, 0]).degree() == 1
    assert IntPoly([0, 0]).is_zero()
    assert IntPoly([]).degree() == -1


def test_poly_ring_identities():
    rng = random.Random(17)
    for _ in range(40):
        a = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])
        b = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)
        if not b.is_zero():
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()
        # the product rule, and the derivative of a constant is zero
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
    assert IntPoly([7]).derivative().is_zero()
    assert IntPoly([5, Fraction(1, 2), 0, 3]).derivative() == IntPoly([Fraction(1, 2), 0, 9])


def test_poly_from_linear_factors():
    # 2n(2n-1) expanded
    p = IntPoly.from_linear_factors([(2, 0), (2, -1)])
    assert p == IntPoly([0, -2, 4])
    q = IntPoly.from_linear_factors([(1, 0), (2, -1)], scale=2)
    assert q(3) == 2 * 3 * 5


def test_poly_primitive_and_content():
    p = IntPoly([Fraction(4, 3), Fraction(-8, 3), 4])
    prim, scale = p.primitive()
    assert prim == IntPoly([1, -2, 3])
    assert scale == Fraction(4, 3)
    assert prim * scale == p
    neg, nscale = (-1 * p).primitive()
    assert neg.leading() > 0
    assert nscale == Fraction(-4, 3)


def test_poly_gcd_known_factor():
    a = IntPoly.from_linear_factors([(1, -5), (1, 2)])
    b = IntPoly.from_linear_factors([(1, -5), (3, 1)])
    g = poly_gcd(a, b)
    assert g == IntPoly([-5, 1])
    coprime = poly_gcd(IntPoly([1, 1]), IntPoly([2, 1]))
    assert coprime.degree() == 0
