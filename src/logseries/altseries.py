"""Alternating-rate solutions of the degree-2 series family.

Real parameters in the rate map only yield monotone series. A negative
rate needs the complex point 1 + r e^(i phi), whose norm is the target
p; forcing the rate to be real and negative pins (r, phi) to a two-
equation trigonometric system with exactly one solution in r > 0,
0 < phi < pi. For most integer p the resulting rate is an algebraic
irrational and no integer series exists; this module solves the system,
detects the rational rates, recovers their integer series parameters
and the quadratic field they live in, and scans integer ranges for the
sporadic hits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import mpmath

from .exactnum import FixedReal
from .seriesdef import _mpf_to_fraction
from . import binsplit, machin, seriesdef

log = logging.getLogger(__name__)

SCAN_LIMIT = 133  # rates reach -1 just past this integer
# Rational detection of the rate and of the coefficients works on 64-bit
# denominators and needs three times that precision.
MIN_BITS = 3 * 64


def _to_mpf(x):
    f = x.to_fraction() if isinstance(x, FixedReal) else Fraction(x)
    return mpmath.mpf(f.numerator) / f.denominator


def _squarefree_part(n):
    if n <= 0:
        raise ValueError("need a positive integer")
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1 if d == 2 else 2
    return out * n


# ----------------------------------------------------------------------
#  The (r, phi) system
# ----------------------------------------------------------------------

def _sign_condition(r, phi):
    # Re/Im balance that makes the rate real and negative.
    return (r * r * mpmath.cos(phi) + 3 * r * mpmath.cos(2 * phi)
            + 2 * mpmath.cos(3 * phi))


def _norm_condition(p, r, phi):
    return r * r + 2 * r * mpmath.cos(phi) + 1 - p


def _rate_boundary(r, phi):
    # rate = -1, the outer edge of the convergent region
    close = r * r + 2 * r * mpmath.cos(phi) + 1
    far = r * r + 4 * r * mpmath.cos(phi) + 4
    return r ** 6 - 108 * close * far


def _newton_pair(system, jacobian, x, y, tol):
    """Damped two-dimensional Newton iteration; None on failure."""
    for _ in range(100):
        f1, f2 = system(x, y)
        size = abs(f1) + abs(f2)
        if size < tol:
            return x, y
        j11, j12, j21, j22 = jacobian(x, y)
        det = j11 * j22 - j12 * j21
        if det == 0:
            return None
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        damp = mpmath.mpf(1)
        for _ in range(40):
            nx, ny = x - damp * dx, y - damp * dy
            g1, g2 = system(nx, ny)
            if abs(g1) + abs(g2) < size:
                break
            damp /= 2
        else:
            return None
        x, y = nx, ny
    return None


def _radius_on_norm_curve(p, phi):
    # positive root of the norm condition at fixed phi
    c = mpmath.cos(phi)
    return -c + mpmath.sqrt(c * c + p - 1)


def _solve_by_bisection(p, bits):
    """Scalar fallback: walk phi along the norm curve and bisect the
    sign condition. Returns (r, phi) or None if no bracket is found."""
    def probe(phi):
        return _sign_condition(_radius_on_norm_curve(p, phi), phi)

    steps = 256
    grid = [mpmath.pi * k / steps for k in range(1, steps)]
    low = high = low_value = None
    previous_phi, previous = grid[0], probe(grid[0])
    for phi in grid[1:]:
        current = probe(phi)
        if mpmath.sign(current) != mpmath.sign(previous):
            low, high, low_value = previous_phi, phi, previous
            break
        previous_phi, previous = phi, current
    if low is None:
        return None
    for _ in range(bits + 24):
        mid = (low + high) / 2
        value = probe(mid)
        if value == 0:
            low = high = mid
            break
        if mpmath.sign(value) == mpmath.sign(low_value):
            low, low_value = mid, value
        else:
            high = mid
    phi = (low + high) / 2
    return _radius_on_norm_curve(p, phi), phi


def solve_r_phi(p, bits=256):
    """The unique solution of the sign and norm conditions with r > 0,
    phi in (0, pi), as a FixedReal pair at `bits` precision.

    Damped Newton from (sqrt(p-1), pi/3); if that diverges or leaves
    the admissible region, a phi-bisection along the norm curve takes
    over.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    with mpmath.workprec(bits + 64):
        def system(r, phi):
            return _sign_condition(r, phi), _norm_condition(p, r, phi)

        def jacobian(r, phi):
            return (2 * r * mpmath.cos(phi) + 3 * mpmath.cos(2 * phi),
                    -(r * r * mpmath.sin(phi) + 6 * r * mpmath.sin(2 * phi)
                      + 6 * mpmath.sin(3 * phi)),
                    2 * r + 2 * mpmath.cos(phi),
                    -2 * r * mpmath.sin(phi))

        tol = mpmath.mpf(2) ** -(bits + 16)
        found = _newton_pair(system, jacobian, mpmath.sqrt(mpmath.mpf(p - 1)),
                             mpmath.pi / 3, tol)
        if found is not None:
            r, phi = found
            if not (r > 0 and 0 < phi < mpmath.pi):
                found = None
        if found is None:
            found = _solve_by_bisection(p, bits)
        if found is None:
            raise RuntimeError(f"p={p}: Newton and bisection both failed")
        r, phi = found
        if not (r > 0 and 0 < phi < mpmath.pi):
            raise RuntimeError(f"p={p}: solution left the admissible region")
        return (FixedReal.from_rational(_mpf_to_fraction(r), bits),
                FixedReal.from_rational(_mpf_to_fraction(phi), bits))


def rho_from_r_phi(r, phi, bits):
    """The rate r^6 e^(6 i phi) / (108 (1+r e^(i phi))^2 (2+r e^(i phi))^2).

    The sign condition forces this to be real; the imaginary part is
    asserted below 2^(-bits/2) and the real part returned.
    """
    with mpmath.workprec(bits + 48):
        point = _to_mpf(r) * mpmath.exp(mpmath.mpc(0, 1) * _to_mpf(phi))
        value = point ** 6 / (108 * (1 + point) ** 2 * (2 + point) ** 2)
        if abs(mpmath.im(value)) > mpmath.mpf(2) ** -(bits // 2):
            raise ValueError("rate has a large imaginary part; "
                             "(r, phi) do not satisfy the sign condition")
        return FixedReal.from_rational(_mpf_to_fraction(mpmath.re(value)), bits)


def detect_rational(x, max_den_bits):
    """Best rational approximation with denominator below 2^max_den_bits,
    accepted only when it matches x to 2^(-2 max_den_bits); None otherwise.

    Callers holding more precision than the acceptance threshold should
    re-test the returned value at full precision: a generic irrational
    has roughly even odds of a spuriously close approximant at any
    single threshold.
    """
    if x.bit_precision < 3 * max_den_bits:
        raise ValueError("need precision of at least 3x the denominator bits")
    value = x.to_fraction()
    best = value.limit_denominator(2 ** max_den_bits - 1)
    if abs(value - best) < Fraction(1, 2 ** (2 * max_den_bits)):
        return best
    return None


def _confirmed_rational(x, max_den_bits):
    """detect_rational plus a full-precision residual gate (tighter than
    the contractual 2^(-2 max_den_bits) whenever precision allows)."""
    best = detect_rational(x, max_den_bits)
    if best is None:
        return None
    strict = min(x.bit_precision - 16, x.bit_precision // 2 + 2 * max_den_bits)
    if abs(x.to_fraction() - best) >= Fraction(1, 2 ** strict):
        return None
    return best


# ----------------------------------------------------------------------
#  Series parameters at a solved point
# ----------------------------------------------------------------------

def _numerator_values(p, r, phi, count):
    """-(1/6) Re((w-1)/(w^2 (w+1)) P(n, w)) at w = 1 + r e^(i phi) for
    n = 0..count-1; these are the rational numbers (a n + b)/c."""
    w = 1 + _to_mpf(r) * mpmath.exp(mpmath.mpc(0, 1) * _to_mpf(phi))
    norm = w * mpmath.conj(w)
    if abs(norm - p) > mpmath.mpf(2) ** -(mpmath.mp.prec // 2):
        raise ValueError("the point does not have norm p")
    slope = 2 * (w * w - 14 * w + 1) * (w * w + 4 * w + 1)
    const = w ** 4 - 14 * w ** 3 - 94 * w ** 2 - 14 * w + 1
    shell = (w - 1) / (w * w * (w + 1))
    return [-mpmath.re(shell * (slope * n + const)) / 6 for n in range(count)]


def abc_from_solution(p, r, phi, rho):
    """Coprime integers (a, b, c), c > 0, of the alternating series for
    log p at the solved point; raises if the coefficients are not
    rational (the filter that discards non-sporadic p)."""
    rho = Fraction(rho)
    bits = min(r.bit_precision, phi.bit_precision)
    if bits < MIN_BITS:
        raise ValueError(f"need at least {MIN_BITS} bits in (r, phi)")
    with mpmath.workprec(bits + 48):
        rate = rho_from_r_phi(r, phi, bits)
        if abs(rate.to_fraction() - rho) > Fraction(1, 2 ** (bits // 2)):
            raise ValueError("rho does not belong to this (r, phi)")
        first, second = _numerator_values(p, r, phi, 2)
        b_over_c = _confirmed_rational(
            FixedReal.from_rational(_mpf_to_fraction(first), bits), 64)
        a_over_c = _confirmed_rational(
            FixedReal.from_rational(_mpf_to_fraction(second - first), bits), 64)
    if a_over_c is None or b_over_c is None:
        raise ValueError(f"p={p}: series coefficients are not rational")
    c = lcm(a_over_c.denominator, b_over_c.denominator)
    a = int(a_over_c * c)
    b = int(b_over_c * c)
    shared = gcd(a, b, c)
    return a // shared, b // shared, c // shared


def _field_identifier(p, r):
    """Negative squarefree m with the solved point in Q(sqrt(m)).

    r^2 is rational at every sporadic hit; the norm condition then makes
    r cos(phi) rational too, and m is the squarefree part of minus the
    squared imaginary part."""
    bits = r.bit_precision
    r2 = _confirmed_rational(
        FixedReal.from_rational(r.to_fraction() ** 2, bits), 64)
    if r2 is None:
        raise ValueError("r^2 is not rational; no quadratic field")
    half_trace = (p - 1 - r2) / 2
    y2 = r2 - half_trace ** 2
    if y2 <= 0:
        raise ValueError("solution is not a complex point")
    return -_squarefree_part(y2.numerator * y2.denominator)


@dataclass(frozen=True)
class AlternatingSolution:
    """A sporadic alternating series: the solved point, its rational
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
    """(r, phi, p) where the rate reaches -1: the sign condition, the
    norm condition and the rate boundary hold simultaneously. Integer
    targets beyond floor(p) admit no convergent alternating series."""
    with mpmath.workprec(bits + 64):
        seed_r, seed_phi = solve_r_phi(SCAN_LIMIT, bits)

        def system(r, phi):
            return _sign_condition(r, phi), _rate_boundary(r, phi)

        def jacobian(r, phi):
            c, s = mpmath.cos(phi), mpmath.sin(phi)
            close = r * r + 2 * r * c + 1
            far = r * r + 4 * r * c + 4
            return (2 * r * c + 3 * mpmath.cos(2 * phi),
                    -(r * r * s + 6 * r * mpmath.sin(2 * phi)
                      + 6 * mpmath.sin(3 * phi)),
                    6 * r ** 5 - 108 * ((2 * r + 2 * c) * far
                                        + close * (2 * r + 4 * c)),
                    108 * r * s * (2 * far + 4 * close))

        tol = mpmath.mpf(2) ** -(bits + 16)
        found = _newton_pair(system, jacobian, _to_mpf(seed_r),
                             _to_mpf(seed_phi), tol)
        if found is None:
            raise RuntimeError("limit solve failed from the p=133 seed")
        r, phi = found
        p_limit = r * r + 2 * r * mpmath.cos(phi) + 1
        return (FixedReal.from_rational(_mpf_to_fraction(r), bits),
                FixedReal.from_rational(_mpf_to_fraction(phi), bits),
                FixedReal.from_rational(_mpf_to_fraction(p_limit), bits))


class UndecidedScan(Exception):
    """A scan that could not decide every p. `hits` holds the verified
    series it found, `undecided` a (p, reason) pair per failed point."""

    def __init__(self, hits, undecided):
        super().__init__(
            "undecided " + ", ".join(f"p={p}" for p, _ in undecided))
        self.hits = hits
        self.undecided = undecided


def _examine(p, bits):
    """One scan step: None when p is not sporadic, a verified solution
    when it is."""
    r, phi = solve_r_phi(p, bits)
    rate = rho_from_r_phi(r, phi, bits)
    rho = _confirmed_rational(rate, 64)
    if rho is None:
        return None
    a, b, c = abc_from_solution(p, r, phi, rho)
    m = _field_identifier(p, r)
    solution = AlternatingSolution(p=p, r=r, phi=phi, rho=rho, m=m, a=a, b=b, c=c)
    want = machin.log_decimal(p, 50)
    got = binsplit.evaluate(solution.series(), 50).decimal_digits
    if got != want:
        raise ValueError(f"p={p}: series does not reproduce log {p} "
                         f"at 50 digits")
    return solution


def scan_range(p_lo, p_hi, bits=512):
    """All sporadic alternating series with p_lo <= p <= p_hi.

    Each candidate rate must survive rational detection at full solver
    precision, yield rational series coefficients, and reproduce log p
    to 50 digits against the independent oracle. A p that fails on the
    way is logged and the scan moves on; once it is done, UndecidedScan
    carries the hits and every such p, so no failure passes for "no
    series". Below MIN_BITS every p would fail that way, so such a
    precision is rejected up front.
    """
    if not 2 <= p_lo <= p_hi <= SCAN_LIMIT:
        raise ValueError(f"scan range must sit inside [2, {SCAN_LIMIT}]")
    if bits < MIN_BITS:
        raise ValueError(f"need at least {MIN_BITS} bits, got {bits}")
    hits, undecided = [], []
    for p in range(p_lo, p_hi + 1):
        try:
            solution = _examine(p, bits)
        except (RuntimeError, ValueError) as exc:
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
