"""Alternating-rate solutions of the degree-2 series family.

A negative rate (w-1)^6 / (108 w^2 (w+1)^2) needs a complex point
w = 1 + r e^(i phi) of norm p at which q = (w-1)^3 / (w (w+1)) is purely
imaginary. With u = Re w and v^2 = p - u^2 that reads 2u^2 + (p+1)u = 4p,
whose one root on the circle |w|^2 = p is u = (sqrt(D) - p - 1)/4,
D = p^2 + 34p + 1. (The other factor of "the rate is real" makes q real
and the rate positive.) With s = p + 1 the rate is
(27s^4 + 36s^2 D + D^2 - 64s(p^2+7p+1) sqrt(D)) / (13824 p^2); u and the
rate are exactnum.QuadraticRationals over Q(sqrt(D)). The sqrt(D)
coefficient -(p+1)(p^2+7p+1)/(216p^2) is nonzero for p > 0, so the rate
is rational precisely when D is a square: for integer p >= 2 only at 5,
10, 21 and 56. There u is rational, and w = u + sqrt(u^2 - p), over
d = u^2 - p, gives the integer series parameters and the quadratic field
exactly; (r, phi) are only rendered for output and checks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import mpmath

from .exactnum import FixedReal, QuadraticRational
from . import binsplit, machin, seriesdef

log = logging.getLogger(__name__)

SCAN_LIMIT = 133  # rates reach -1 just past this integer
RENDER_BITS = 512  # precision of a hit's (r, phi)


def _to_mpf(x):
    f = x.to_fraction() if isinstance(x, FixedReal) else Fraction(x)
    return mpmath.mpf(f.numerator) / f.denominator


def _squarefree_part(n):
    if n <= 0:
        raise ValueError("need a positive integer")
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        d += 1
    return n


# ----------------------------------------------------------------------
#  The branch point, its rate and its series
# ----------------------------------------------------------------------

def _sign_condition(r, phi):
    # Re/Im balance that makes the rate real and negative.
    return (r * r * mpmath.cos(phi) + 3 * r * mpmath.cos(2 * phi)
            + 2 * mpmath.cos(3 * phi))


def _norm_condition(p, r, phi):
    return r * r + 2 * r * mpmath.cos(phi) + 1 - p


def _branch(p):
    """(u, rho) at the alternating branch point of norm p, exactly in
    Q(sqrt(D)), by the closed forms above in ints over p = n/d, where
    d sqrt(D) is the square root of n^2 + 34nd + d^2."""
    p = Fraction(p)
    n, d = p.numerator, p.denominator
    s, disc, k = n + d, n * n + 34 * n * d + d * d, n * n + 7 * n * d + d * d
    root = isqrt(disc)  # d sqrt(D) = root + coeff sqrt(D), one of them 0
    root, coeff = (root, 0) if root * root == disc else (0, d)
    field, den = Fraction(disc, d * d), 13824 * n * n * d * d
    rational = 27 * s ** 4 + 36 * s * s * disc + disc * disc
    return (QuadraticRational(Fraction(root - s, 4 * d), Fraction(coeff, 4 * d), field),
            QuadraticRational(Fraction(rational - 64 * s * k * root, den),
                              Fraction(-64 * s * k * coeff, den), field))


def _polar(p, bits):
    """(r, phi) of the branch point w = 1 + r e^(i phi) of norm p, for a
    rational p, as FixedReals at `bits`: r^2 = p + 1 - 2u and
    phi = atan2(v, u - 1)."""
    with mpmath.workprec(bits + 64):
        p = _to_mpf(p)
        u = (mpmath.sqrt(p * p + 34 * p + 1) - p - 1) / 4
        r = mpmath.sqrt(p + 1 - 2 * u)
        phi = mpmath.atan2(mpmath.sqrt(p - u * u), u - 1)
    return tuple(FixedReal(int(mpmath.ldexp(x, bits)), bits) for x in (r, phi))


def _abc(w):
    """Coprime integers (a, b, c), c > 0, with (a n + b)/c equal to
    -(1/6) Re((w-1)/(w^2 (w+1)) P(n, w)), P(n, w) = slope n + const.
    w = u + sqrt(u^2 - p) with u rational, so the real part is the
    rational component."""
    slope = 2 * (w * w - 14 * w + 1) * (w * w + 4 * w + 1)
    const = (((w - 14) * w - 94) * w - 14) * w + 1
    shell = (w - 1) / (w * w * (w + 1))
    a_over_c, b_over_c = (shell * slope).a / -6, (shell * const).a / -6
    c = lcm(a_over_c.denominator, b_over_c.denominator)
    a, b = int(a_over_c * c), int(b_over_c * c)
    shared = gcd(a, b, c)
    return a // shared, b // shared, c // shared


@dataclass(frozen=True)
class AlternatingSolution:
    """A sporadic alternating series: the point (r, phi), its rational
    rate, the quadratic field id, and the integer series parameters."""

    p: int
    r: FixedReal
    phi: FixedReal
    rho: Fraction
    m: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.rho >= 0:
            raise ValueError("alternating rate must be negative")
        if self.m >= 0 or _squarefree_part(-self.m) != -self.m:
            raise ValueError("field identifier must be negative and squarefree")
        if gcd(self.a, self.b, self.c) != 1:
            raise ValueError("(a, b, c) must be coprime as a triple")
        bits = min(self.r.bit_precision, self.phi.bit_precision)
        with mpmath.workprec(bits + 32):
            r, phi = _to_mpf(self.r), _to_mpf(self.phi)
            bound = mpmath.mpf(2) ** -(bits // 2)
            if abs(_sign_condition(r, phi)) > bound \
                    or abs(_norm_condition(self.p, r, phi)) > bound:
                raise ValueError("(r, phi) does not satisfy the defining system")

    def series(self):
        return seriesdef.d2_series_from_abc(
            self.a, self.b, self.c, self.rho, f"log({self.p})-alternating")


# ----------------------------------------------------------------------
#  Convergence edge and range scan
# ----------------------------------------------------------------------

def convergence_limit(bits=256):
    """(r, phi, p) where the branch rate reaches -1, as FixedReals at
    `bits`; integer targets beyond floor(p) admit no convergent
    alternating series. Bisection over rational p on the exact sign of
    rho(p) + 1, which is positive at SCAN_LIMIT and negative one above.
    """
    lo, hi = Fraction(SCAN_LIMIT), Fraction(SCAN_LIMIT + 1)
    for _ in range(bits + 8):
        mid = (lo + hi) / 2
        if (_branch(mid)[1] + 1).sign() > 0:
            lo = mid
        else:
            hi = mid
    p = (lo + hi) / 2
    return (*_polar(p, bits), FixedReal.from_rational(p, bits))


class UndecidedScan(Exception):
    """A scan that could not decide every p. `hits` holds the verified
    series it found, `undecided` a (p, reason) pair per failed point."""

    def __init__(self, hits, undecided):
        super().__init__(
            "undecided " + ", ".join(f"p={p}" for p, _ in undecided))
        self.hits = hits
        self.undecided = undecided


def _examine(p):
    """One scan step: None when the rate at p is irrational, a verified
    solution when it is rational."""
    u, rho = _branch(p)
    if not rho.is_rational():
        return None
    u, rho = u.a, rho.a
    v2 = p - u * u
    r, phi = _polar(p, RENDER_BITS)
    a, b, c = _abc(QuadraticRational.root(-v2) + u)
    # w = u + i v lies in Q(sqrt(m)), m = -(squarefree part of v^2)
    m = -_squarefree_part(v2.numerator * v2.denominator)
    solution = AlternatingSolution(p=p, r=r, phi=phi, rho=rho, m=m,
                                   a=a, b=b, c=c)
    want = machin.log_decimal(p, 50)
    got = binsplit.evaluate(solution.series(), 50).decimal_digits
    if got != want:
        raise ValueError(f"p={p}: series does not reproduce log {p} "
                         f"at 50 digits")
    return solution


def scan_range(p_lo, p_hi):
    """All sporadic alternating series with p_lo <= p <= p_hi.

    Whether the rate at p is rational is decided exactly, so a p without
    a hit has no series of this shape. Each hit must reproduce log p to
    50 digits against the independent oracle; a p that fails is logged,
    and once the scan is done UndecidedScan carries the hits and every
    such p.
    """
    if p_lo > p_hi:
        raise ValueError(f"scan range [{p_lo}, {p_hi}] needs p_lo <= p_hi")
    if not 2 <= p_lo <= p_hi <= SCAN_LIMIT:
        raise ValueError(f"scan range must sit inside [2, {SCAN_LIMIT}]")
    hits, undecided = [], []
    for p in range(p_lo, p_hi + 1):
        try:
            solution = _examine(p)
        except ValueError as exc:
            log.warning("p=%d: %s", p, exc)
            undecided.append((p, str(exc).removeprefix(f"p={p}: ")))
            continue
        if solution is None:
            log.debug("p=%d: rate is not rational", p)
            continue
        hits.append(solution)
    if undecided:
        raise UndecidedScan(hits, undecided)
    return hits
