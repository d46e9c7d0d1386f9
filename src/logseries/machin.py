"""Self-contained logarithm oracle.

Computes log of small positive integers and fractions through the
classical arctanh decomposition

    log((b+1)/(b-1)) = 2*atanh(1/b),  atanh(1/b) = sum 1/((2k+1) b^(2k+1))

summed in pure integer arithmetic with explicit interval bounds. It is
far slower than the series evaluator and shares no code with it, which
is exactly what makes it a useful referee.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


def _atanh_interval(b, scale):
    """Enclosure of atanh(1/b) * 10**scale as an integer pair (lo, hi)."""
    if b < 2:
        raise ValueError("need b >= 2")
    acc = 0
    p = 10 ** scale // b
    bb = b * b
    k = 0
    terms = 0
    while p:
        acc += p // (2 * k + 1)
        p //= bb
        k += 1
        terms += 1
    # Every floor division drops less than 1 and the power chain keeps its
    # running deficit under 2, so each term is short by less than 3; the
    # dropped tail is worth less than 4 in these units.
    return acc, acc + 3 * terms + 4


def _small_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class _Oracle:
    def __init__(self, scale):
        self.scale = scale
        self._primes = {}

    def prime_log(self, q):
        if q not in self._primes:
            if q == 2:
                lo, hi = _atanh_interval(3, self.scale)
                self._primes[2] = (2 * lo, 2 * hi)
            else:
                plo, phi = self.log_int(q - 1)
                alo, ahi = _atanh_interval(2 * q - 1, self.scale)
                self._primes[q] = (plo + 2 * alo, phi + 2 * ahi)
        return self._primes[q]

    def log_int(self, n):
        if n < 1:
            raise ValueError("log of a nonpositive integer")
        lo = hi = 0
        for q in _small_factors(n):
            qlo, qhi = self.prime_log(q)
            lo += qlo
            hi += qhi
        return lo, hi

    def log_fraction(self, x):
        x = Fraction(x)
        if x <= 0:
            raise ValueError("log of a nonpositive value")
        nlo, nhi = self.log_int(x.numerator)
        dlo, dhi = self.log_int(x.denominator)
        return nlo - dhi, nhi - dlo


def log_interval(x, scale):
    """Integer pair (lo, hi) with lo <= log(x) * 10**scale <= hi."""
    return _Oracle(scale).log_fraction(x)


def log_decimal(x, digits):
    """log(x) as a decimal string, truncated to `digits` fractional digits.

    The text is the sign, then the exact floor of |log(x)| * 10**digits,
    so for x < 1 the value is truncated toward zero, not floored: log(1/2)
    at 20 places ends in ...941, where the floor ends in ...942. The
    guard width grows until the enclosure pins every requested digit
    down.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    if x == 1:
        return "0." + "0" * digits if digits else "0"
    if x < 1:
        # write negative logs sign-first with the magnitude truncated
        return "-" + log_decimal(1 / x, digits)
    guard = 16
    while True:
        lo, hi = log_interval(x, digits + guard)
        cell = 10 ** guard
        if lo // cell == hi // cell:
            scaled = lo // cell
            break
        guard *= 2
    # str(int) refuses long values under the interpreter's default
    # conversion limit; Decimal converts an int of any length
    text = str(Decimal(scaled)).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text
