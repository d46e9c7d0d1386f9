"""Exact arithmetic substrate.

QuadraticRational, the one quadratic-field type: a + b sqrt(d) over
Q(i) (d = -1) for the WZ certificates and over Q(sqrt(D)) for the
alternating rates. Dense univariate polynomials with rational
coefficients, and FixedReal, a real rounded once to a fixed number of
bits that carries numeric results into the exact layers. Everything is
immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# ----------------------------------------------------------------------
#  Quadratic fields
# ----------------------------------------------------------------------

class QuadraticRational:
    """a + b sqrt(d) with Fraction a and b over one rational d.

    d = -1 gives the Gaussian rationals Q(i). root(d) folds a rational
    square root into a, so b is 0 exactly when the number is rational;
    b != 0 needs a d that is not a rational square. An int or Fraction
    operand joins any field, and takes two multiplications in a product;
    an operand over another d raises ValueError.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        # operators pass Fractions; copying them was most of the cost
        for name, x in (("a", a), ("b", b), ("d", d)):
            object.__setattr__(self, name, x if isinstance(x, Fraction) else Fraction(x))

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticRational is immutable")

    @classmethod
    def root(cls, d):
        """sqrt(d) in Q(sqrt(d)), rational when d is a rational square."""
        d = Fraction(d)
        if d >= 0:
            top, bottom = math.isqrt(d.numerator), math.isqrt(d.denominator)
            if top * top == d.numerator and bottom * bottom == d.denominator:
                return cls(Fraction(top, bottom), 0, d)
        return cls(0, 1, d)

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadraticRational(other, 0, self.d)
        if not isinstance(other, QuadraticRational):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if other.d != self.d:
            raise ValueError(f"operands lie over d = {self.d} and d = {other.d}")
        return other

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, QuadraticRational)):
            return NotImplemented
        other = self._lift(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # equal to its rational value when b is 0, so the hashes agree
        return hash(self.a) if not self.b else hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def __add__(self, other):
        other = self._lift(other)
        return QuadraticRational(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticRational(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._lift(other)
        return QuadraticRational(self.a - other.a, self.b - other.b, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadraticRational(self.a * other, self.b * other, self.d)
        other = self._lift(other)
        return QuadraticRational(self.a * other.a + self.b * other.b * self.d,
                                 self.a * other.b + self.b * other.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadraticRational(self.a / other, self.b / other, self.d)
        other = self._lift(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return self * other.conjugate() / n

    def __rtruediv__(self, other):
        return QuadraticRational(other, 0, self.d) / self

    def __pow__(self, k):
        if k < 0:
            return 1 / self ** (-k)
        out = QuadraticRational(1, 0, self.d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return QuadraticRational(self.a, -self.b, self.d)

    def norm(self):
        """a^2 - d b^2, an exact rational; |z|^2 over Q(i)."""
        return self.a * self.a - self.d * self.b * self.b

    def is_rational(self):
        return self.b == 0

    def sign(self):
        """Exact sign of the real number a + b sqrt(d), for d >= 0."""
        if self.d < 0:
            raise ValueError("a complex field has no order")
        # a + b sqrt(d) has the sign of a when a^2 > b^2 d, else that of b
        larger = self.a if self.a * self.a > self.b * self.b * self.d else self.b
        return (larger > 0) - (larger < 0)

    def __repr__(self):
        return f"QuadraticRational({self.a}, {self.b}, {self.d})"


# ----------------------------------------------------------------------
#  Fixed-point reals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FixedReal:
    """A rounded real: value = mantissa * 2**(-bit_precision).

    It only carries a value between the numeric and the exact layers;
    callers compute on to_fraction() or in mpmath.
    """

    mantissa: int
    bit_precision: int

    def __post_init__(self):
        if self.bit_precision < 8:
            raise ValueError("bit_precision must be at least 8")

    @classmethod
    def from_rational(cls, x, bits):
        """x truncated toward zero to `bits` fractional bits."""
        x = Fraction(x)
        m = abs(x.numerator << bits) // x.denominator
        return cls(-m if x < 0 else m, bits)

    def to_fraction(self):
        return Fraction(self.mantissa, 1 << self.bit_precision)

    def to_decimal(self, digits):
        """Decimal string truncated to `digits` places after the point."""
        f = self.to_fraction()
        neg = f < 0
        f = abs(f)
        scaled = f.numerator * 10 ** digits // f.denominator
        s = str(scaled).rjust(digits + 1, "0")
        out = s[:-digits] + "." + s[-digits:] if digits else s
        return "-" + out if neg else out

    def __float__(self):
        return self.mantissa / (1 << self.bit_precision)


# ----------------------------------------------------------------------
#  Polynomials
# ----------------------------------------------------------------------

class IntPoly:
    """Dense univariate polynomial, rational coefficients, ascending order."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def from_linear_factors(cls, factors, scale=1):
        """scale * prod (a*n + b) for (a, b) pairs."""
        out = cls([scale])
        for a, b in factors:
            out = out * cls([b, a])
        return out

    def is_zero(self):
        return not self.coefficients

    def degree(self):
        return len(self.coefficients) - 1 if self.coefficients else -1

    def leading(self):
        if not self.coefficients:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def derivative(self):
        return IntPoly([k * c for k, c in enumerate(self.coefficients)][1:])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return IntPoly([
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        ])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntPoly([c * other for c in self.coefficients])
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPoly([])
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coefficients) + 1)
        d = other.degree()
        lead = other.leading()
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            quo[shift] = factor
            for i, c in enumerate(other.coefficients):
                rem[shift + i] -= factor * c
            rem.pop()
        return IntPoly(quo), IntPoly(rem)

    def content(self):
        """gcd of numerators over lcm of denominators (positive)."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(math.gcd(*(c.numerator for c in self.coefficients)),
                        math.lcm(*(c.denominator for c in self.coefficients)))

    def primitive(self):
        """Integer-coefficient multiple with content 1 and positive leading
        coefficient; returns (primitive_poly, scale) with self = scale * prim."""
        if self.is_zero():
            return self, Fraction(1)
        scale = self.content()
        if self.leading() < 0:
            scale = -scale
        return IntPoly([c / scale for c in self.coefficients]), scale

    def __repr__(self):
        return f"IntPoly({list(self.coefficients)})"


def poly_gcd(f, g):
    """Monic gcd over Q (constant 1 for coprime inputs)."""
    a, b = f, g
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * (1 / a.leading())
