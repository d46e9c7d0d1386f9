"""Exact arithmetic substrate.

Arbitrary precision rationals, Gaussian rationals, fixed-point reals and
dense univariate polynomials with rational coefficients. Everything is
immutable; FixedReal is the only inexact type and it truncates toward
zero with at most 1 ulp error per operation, so precision-sensitive
callers must bring their own guard bits.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

# CPython 3.11+ limits int -> str conversion size by default; we routinely
# format numbers with millions of digits, so lift the limit once on import.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

# ----------------------------------------------------------------------
#  Gaussian rationals
# ----------------------------------------------------------------------

class GaussianRational:
    """Element of Q(i) with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational(other) / self

    def __pow__(self, k):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm(self):
        """re^2 + im^2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_rational(self):
        return self.im == 0

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


# ----------------------------------------------------------------------
#  Fixed-point reals
# ----------------------------------------------------------------------

def _trunc_div(a, b):
    # Python's // floors; we want truncation toward zero.
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


class FixedReal:
    """Scaled-integer real: value = mantissa * 2**(-bit_precision).

    Arithmetic truncates toward zero, so each operation is within 1 ulp.
    Mixed-precision operands are aligned to the higher precision (the
    coarser mantissa is shifted up exactly, losing nothing).
    """

    __slots__ = ("mantissa", "bit_precision")

    def __init__(self, mantissa, bit_precision):
        if bit_precision < 8:
            raise ValueError("bit_precision must be at least 8")
        object.__setattr__(self, "mantissa", int(mantissa))
        object.__setattr__(self, "bit_precision", int(bit_precision))

    def __setattr__(self, name, value):
        raise AttributeError("FixedReal is immutable")

    @classmethod
    def from_rational(cls, x, bits):
        x = Fraction(x)
        m = _trunc_div(x.numerator << bits, x.denominator)
        return cls(m, bits)

    @classmethod
    def from_int(cls, n, bits):
        return cls(n << bits, bits)

    def to_fraction(self):
        return Fraction(self.mantissa, 1 << self.bit_precision)

    def _aligned(self, other):
        if not isinstance(other, FixedReal):
            raise TypeError("expected FixedReal")
        bits = max(self.bit_precision, other.bit_precision)
        a = self.mantissa << (bits - self.bit_precision)
        b = other.mantissa << (bits - other.bit_precision)
        return a, b, bits

    def __add__(self, other):
        a, b, bits = self._aligned(other)
        return FixedReal(a + b, bits)

    def __sub__(self, other):
        a, b, bits = self._aligned(other)
        return FixedReal(a - b, bits)

    def __neg__(self):
        return FixedReal(-self.mantissa, self.bit_precision)

    def __mul__(self, other):
        if isinstance(other, int):
            return FixedReal(self.mantissa * other, self.bit_precision)
        a, b, bits = self._aligned(other)
        return FixedReal(_trunc_div(a * b, 1 << bits), bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return FixedReal(_trunc_div(self.mantissa, other), self.bit_precision)
        a, b, bits = self._aligned(other)
        if b == 0:
            raise ZeroDivisionError("FixedReal division by zero")
        return FixedReal(_trunc_div(a << bits, b), bits)

    def mul_rational(self, q):
        q = Fraction(q)
        m = _trunc_div(self.mantissa * q.numerator, q.denominator)
        return FixedReal(m, self.bit_precision)

    def __abs__(self):
        return FixedReal(abs(self.mantissa), self.bit_precision)

    def sign(self):
        return (self.mantissa > 0) - (self.mantissa < 0)

    def _cmp(self, other):
        a, b, _ = self._aligned(other)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, FixedReal):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self):
        return hash(self.to_fraction())

    def abs_within_ulps(self, k):
        """Honest zero test: |value| <= k ulp at this precision."""
        return abs(self.mantissa) <= k

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

    def __repr__(self):
        return f"FixedReal({self.to_decimal(12)}..., bits={self.bit_precision})"


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

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def eval_gaussian(self, z):
        acc = GaussianRational(0)
        for c in reversed(self.coefficients):
            acc = acc * z + c
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

    def __neg__(self):
        return IntPoly([-c for c in self.coefficients])

    def __sub__(self, other):
        return self + (-other)

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
        num = 0
        den = 1
        for c in self.coefficients:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self):
        """Integer-coefficient multiple with content 1 and positive leading
        coefficient; returns (primitive_poly, scale) with self = scale * prim."""
        if self.is_zero():
            return self, Fraction(1)
        scale = self.content()
        if self.leading() < 0:
            scale = -scale
        return IntPoly([c / scale for c in self.coefficients]), scale

    def real_root_upper_bound(self):
        """Cauchy bound: every real root has |root| < this value."""
        if self.degree() < 1:
            return Fraction(0)
        lead = abs(self.leading())
        m = max(abs(c) for c in self.coefficients[:-1])
        return 1 + m / lead

    def integer_roots_at_or_above(self, start):
        """Exact list of integer roots >= start (scans up to the Cauchy bound)."""
        if self.is_zero():
            raise ValueError("zero polynomial vanishes everywhere")
        roots = []
        bound = self.real_root_upper_bound()
        n = start
        while Fraction(n) <= bound:
            if self(n) == 0:
                roots.append(n)
            n += 1
        return roots

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
