"""Beta-integral partial fractions, integrands and closed forms.

The central-binomial motives are gamma quotients, so each series summand
splits, by partial fractions over a Pochhammer basis, into beta-function
integrals; summing under the integral sign turns the whole series into
the integral of a rational function against dx/sqrt(1-x). The families
built that way live in seriesdef.beta_family. This module computes the
partial-fraction coefficients exactly (pfbeta, certified by
pfbeta_residual), gives a series' summand as an exact rational function
(summand_quotient, which compares a catalog row with its family
member), builds the integer integrand pair u(x)/v(x) for the degree-2
rows, proves each row's integral equal to log p with an exact
logarithmic antiderivative (Rothstein-Trager), and reduces the four
hypergeometric closed forms, each checked against its series, to one
exact rational logarithm.
"""

from __future__ import annotations

import dataclasses
from decimal import Decimal
from fractions import Fraction
from math import lcm, prod

import mpmath

from .exactnum import IntPoly, QuadraticRational, poly_gcd
from . import binsplit, seriesdef
from .seriesdef import estimate_terms, gamma_quotient_motive


# ----------------------------------------------------------------------
#  Partial fractions over the Pochhammer basis
# ----------------------------------------------------------------------

def _basis(x, k, m, a, b, n_count):
    """u(x, k) = prod_{j=1}^{k-1}(m x+j-1+a) / prod_{j=1}^{k}(N x+j-1+b)."""
    num = Fraction(1)
    for j in range(1, k):
        num *= m * x + j - 1 + a
    den = Fraction(1)
    for j in range(1, k + 1):
        den *= n_count * x + j - 1 + b
    return num / den


def a1a2a3(a, b, c):
    """Partial-fraction coefficients of the degree-2 rational part
    (a n + b)/(c (6n+1)(6n+5)) over the three-term Pochhammer basis."""
    if c == 0:
        raise ValueError("c must be nonzero")
    first = Fraction(-(a - 2 * b), 8 * c)
    swing = Fraction(3 * (5 * a - 6 * b), 16 * c)
    return first, swing, -swing


def pfbeta(G, L, m, a, N, b):
    """Coefficients A_1..A_L with G(n) = sum_k A_k u(n, k).

    The evaluation points x_k = -(a+k-1)/m zero out every basis term
    beyond the k-th, so the coefficients fall out of a triangular solve
    with exact rational arithmetic. G is any callable returning exact
    values; a pole of G or of the basis at an evaluation point aborts
    with the offending k named.
    """
    if L < 1 or m < 1:
        raise ValueError("need L >= 1 and m >= 1")
    a = Fraction(a)
    b = Fraction(b)
    coefficients = []
    for k in range(1, L + 1):
        x = Fraction(-(a + k - 1), m)
        try:
            value = Fraction(G(x))
            for i, known in enumerate(coefficients, start=1):
                value -= known * _basis(x, i, m, a, b, N)
            value /= _basis(x, k, m, a, b, N)
        except ZeroDivisionError:
            raise ValueError(f"pole collision at evaluation point k={k}") from None
        coefficients.append(value)
    return tuple(coefficients)


def pfbeta_residual(G, A, m, a, N, b):
    """Residual function n -> G(n) - sum_k A_k u(n, k), certified zero.

    The residual is sampled at the first 2 len(A) + 16 pole-free positive
    integers, enough for every decomposition produced here; any nonzero
    value raises. The callable is returned so callers can probe further
    points themselves.
    """
    a = Fraction(a)
    b = Fraction(b)

    def residual(x):
        x = Fraction(x)
        total = Fraction(G(x))
        for k, coefficient in enumerate(A, start=1):
            total -= coefficient * _basis(x, k, m, a, b, N)
        return total

    wanted = 2 * len(A) + 16
    checked = 0
    x = Fraction(1)
    while checked < wanted:
        try:
            value = residual(x)
        except ZeroDivisionError:
            x += 1
            continue
        if value != 0:
            raise ValueError(f"decomposition residual is nonzero at n={x}: {value}")
        checked += 1
        x += 1
    return residual


def _compose(poly, inner):
    """poly(inner(x)) as a new polynomial."""
    out = IntPoly([])
    basis = IntPoly([1])
    for c in poly.coefficients:
        out = out + basis * c
        basis = basis * inner
    return out


def summand_quotient(spec):
    """The series summand G with value = sum_{n>=0} G(n) rho^n M(n),
    as a cancelled pair of polynomials (numerator, denominator).

    Series starting at n=1 are shifted down by one index; the shift
    multiplies the summand by rho and by the motive's one-step ratio
    prod(x+r)/prod(x+q), whose numerator factors cancel the removable
    zeros this introduces in the shifted denominator.
    """
    motive = spec.motive
    if spec.start_index == 0:
        num = spec.numerator_poly * spec.normalizer
        den = spec.denominator_poly
    else:
        step = IntPoly([1, 1])
        num = _compose(spec.numerator_poly, step) * (spec.normalizer * motive.rho)
        num = num * IntPoly.from_linear_factors([(1, r) for r in motive.num_params])
        den = _compose(spec.denominator_poly, step)
        den = den * IntPoly.from_linear_factors([(1, q) for q in motive.den_params])
    common = poly_gcd(num, den)
    if common.degree() > 0:
        num, _ = num.divmod(common)
        den, _ = den.divmod(common)
    return num, den


# ----------------------------------------------------------------------
#  Integer integrands for the degree-2 rows
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class IntegrandPair:
    """Integer polynomials with integral u/v dx/sqrt(1-x) = log p."""

    u_poly: IntPoly
    v_poly: IntPoly

    def __post_init__(self):
        for poly in (self.u_poly, self.v_poly):
            if any(c.denominator != 1 for c in poly.coefficients):
                raise ValueError("integrand polynomials must have integer coefficients")
        if self.v_poly.is_zero():
            raise ValueError("denominator polynomial is zero")
        # Certify v != 0 on [0, 1] by the crude bound: the constant term
        # must dominate the coefficients of the other sign. This is
        # sufficient for every row this package builds.
        coeffs = self.v_poly.coefficients
        sign = 1 if coeffs[0] > 0 else -1
        floor = sign * coeffs[0] + sum(min(0, sign * c) for c in coeffs[1:])
        if floor <= 0:
            raise ValueError("cannot certify the denominator is nonzero on [0, 1]")


def build_integrand(params):
    """Integer u(x), v(x) with u/v equal to the summed integrand
    (A1 + A2 x + A3 x^2) / (1 - (27/4) rho x^2 (1-x)) of a degree-2 row.

    Common polynomial factors are cancelled and the denominator is
    normalized to primitive form with positive leading coefficient; the
    ratio u/v is preserved exactly throughout, so the integral of
    u/v dx/sqrt(1-x) is exactly log p.
    """
    first, second, third = a1a2a3(params.a, params.b, params.c)
    kernel = Fraction(27, 4) * params.rho
    numerator = IntPoly([first, second, third])
    denominator = IntPoly([1, 0, -kernel, kernel])
    common = poly_gcd(numerator, denominator)
    if common.degree() > 0:
        numerator, _ = numerator.divmod(common)
        denominator, _ = denominator.divmod(common)
    v_poly, v_scale = denominator.primitive()
    u_poly = numerator * (1 / v_scale)
    stretch = lcm(*(c.denominator for c in u_poly.coefficients))
    if stretch != 1:
        u_poly = u_poly * stretch
        v_poly = v_poly * stretch
    return IntegrandPair(u_poly, v_poly)


# Largest denominator a residue is proposed with; the d = 2 rows need 3.
_RESIDUE_DENOMINATOR = 10 ** 4


def _float_roots(poly):
    """Complex float roots of poly by Durand-Kerner iteration. They only
    propose residues, which integral_check confirms or rejects exactly."""
    descending = [complex(c / poly.leading()) for c in reversed(poly.coefficients)]
    roots = [(0.4 + 0.9j) ** k for k in range(poly.degree())]
    for _ in range(200):
        moved = 0.0
        for i, r in enumerate(roots):
            value = 0j
            for c in descending:
                value = value * r + c
            step = value / prod(r - s for j, s in enumerate(roots) if j != i)
            roots[i] = r - step
            moved = max(moved, abs(step))
        if moved < 1e-13:
            break
    return roots


def integral_check(pair, p):
    """Exact proof that integral_0^1 u/v dx/sqrt(1-x) = log p, by
    Rothstein-Trager; returns the antiderivative's terms (c, h).

    With x = 1 - t^2 the integral is integral_0^1 U/V dt, U = 2 u(1-t^2),
    V = v(1-t^2). Float residues U(r)/V'(r) only propose rational c;
    h_c is the primitive part of the exact gcd(V, U - c V'). Three
    identities decide: W = prod h_c is V's primitive part; U W =
    V sum c h' W/h, so U/V = sum c h'/h; and prod |h(1)/h(0)|^(c L) =
    p^L, L the lcm of the c's denominators. Each h divides V, nonzero
    on [0, 1] as v is (the pair's bound), so the integral is
    sum c log|h(1)/h(0)| = log p. A residue with no rational candidate
    is undecided; each failure raises ValueError naming its step. Terms
    with c = 0 are dropped: a zero numerator has none, and log 1 = 0.
    """
    one_minus_t2 = IntPoly([1, 0, -1])
    top = _compose(pair.u_poly, one_minus_t2) * 2
    bottom = _compose(pair.v_poly, one_minus_t2)
    slope = bottom.derivative()
    factors = {}
    for root in _float_roots(bottom):
        residue = complex(top(root) / slope(root))
        c = Fraction(residue.real).limit_denominator(_RESIDUE_DENOMINATOR)
        if c not in factors:
            h = poly_gcd(bottom, top + slope * -c).primitive()[0]
            if h.degree() < 1:
                raise ValueError(f"p={p}: undecided: the residue {residue:.6g} "
                                 f"is not a rational with denominator "
                                 f"<= {_RESIDUE_DENOMINATOR}")
            factors[c] = h
    whole = IntPoly([1])
    for h in factors.values():
        whole = whole * h
    if whole != bottom.primitive()[0]:
        raise ValueError(f"p={p}: the factors h_c do not multiply to V")
    terms = sorted(((c, h) for c, h in factors.items() if c),
                   key=lambda term: (term[1].degree(), -term[0]))
    logarithmic = IntPoly([])
    for c, h in terms:
        logarithmic = logarithmic + h.derivative() * whole.divmod(h)[0] * c
    if top * whole != bottom * logarithmic:
        raise ValueError(f"p={p}: U/V is not the sum of c h'/h")
    scale = lcm(*(c.denominator for c, _ in terms))
    power = Fraction(1)
    for c, h in terms:
        power *= abs(h(1) / h(0)) ** int(c * scale)
    if power != p ** scale:
        raise ValueError(f"p={p}: prod |h(1)/h(0)|^c is not {p}")
    return tuple(terms)


# ----------------------------------------------------------------------
#  Closed forms
# ----------------------------------------------------------------------

# The defining series are summed in full only below this many terms;
# beyond it |rho| is too close to 1 for a sum to finish in reasonable time.
PHI_TERMS_LIMIT = 200000

# Numerator and start index of the four defining series on the motive
# rho^n (1/2)_n (1)_n / ((1/6)_n (5/6)_n) with lambda = 1: A sums H(n)/n
# and D sums H(n)/(2n-1) from n = 1, B sums H(n)/(6n+1) and C sums
# H(n)/(6n+5) from n = 0.
_PHI_SERIES = (([-1, 2], 1), ([5, 6], 0), ([1, 6], 0), ([0, 1], 1))


def _mpf_of_digits(text):
    """Digit text as an mpf. mpmath.mpf(text) and Fraction(text) refuse
    over 4,300 digits; Decimal reads any length."""
    exact = Fraction(Decimal(text))
    return mpmath.mpf(exact.numerator) / exact.denominator


def _phi_series(rho, digits):
    """The four defining series at rho, each the exact floor to `digits`
    places, read at working precision."""
    motive = seriesdef.Motive(*gamma_quotient_motive(1, 2), rho)
    specs = [seriesdef.SeriesSpec(motive, IntPoly(coeffs), 1, 1, start,
                                  f"phi{name}")
             for (coeffs, start), name in zip(_PHI_SERIES, "ABCD")]
    if estimate_terms(specs[0], digits) > PHI_TERMS_LIMIT:
        raise ValueError("rho is too close to 1 for the series to converge usefully")
    return [_mpf_of_digits(binsplit.evaluate(spec, digits).decimal_digits)
            for spec in specs]


def phi_closed_forms(z_squared, bits):
    """The four closed forms at the point z with z^2 = z_squared, a
    rational, each validated against its series.

    z is the principal square root of z_squared, and the rate of the
    series, 4/(27 z^2 (1-z^2)^2), is exact. Square roots and logarithms
    use principal branches, except that the inner logarithm of phi_L
    takes one wrap of 2 pi i exactly when 4/3 < z^2 < 2: there z^2-2+ir,
    r = sqrt(3z^2-4) > 0, has an argument above pi/2. Every value is
    checked to 2^-bits against its series, so a wrong branch raises.
    """
    z_squared = Fraction(z_squared)
    if z_squared in (0, 1, Fraction(1, 3)):
        raise ValueError("z^2 is at a pole of the closed forms")
    rho = Fraction(4) / (27 * z_squared * (1 - z_squared) ** 2)
    if abs(rho) >= 1:
        raise ValueError("the defining series diverge for this z")
    wrap = 1 if Fraction(4, 3) < z_squared < 2 else 0
    with mpmath.workdps(int(bits * 0.30103) + 15):
        series = _phi_series(rho, mpmath.mp.dps)
        z2 = mpmath.mpc(z_squared.numerator) / z_squared.denominator
        zz = mpmath.sqrt(z2)
        inverse = mpmath.atanh(1 / zz)
        root = mpmath.sqrt(3 * z2 - 4)
        phi_l = 1j / root * (mpmath.log((z2 - 2 + 1j * root) / (z2 - 2 - 1j * root))
                             + 2j * wrap * mpmath.pi)
        phi_a = (6 * zz * inverse + (3 * z2 - 2) * phi_l) / (1 - 3 * z2)
        phi_b = (3 * zz * (1 - z2) / (2 * (1 - 3 * z2))
                 * (inverse - zz / 2 * phi_l))
        phi_c = (3 * zz * (1 - z2) / (2 * (3 * z2 - 1))
                 * ((9 * z2 ** 2 - 9 * z2 + 1) * inverse
                    + zz * (9 * z2 ** 2 - 15 * z2 + 5) / 2 * phi_l))
        phi_d = (((3 * z2 ** 2 - 3 * z2 + 2) / zz) * inverse
                 + z2 * (3 * z2 - 5) / 2 * phi_l) / (2 * (1 - z2) * (1 - 3 * z2))
        closed = (phi_a, phi_b, phi_c, phi_d)
        for got, want, name in zip(closed, series, "ABCD"):
            if abs(got - want) > mpmath.mpf(2) ** -bits:
                raise ValueError(f"closed form {name} disagrees with its series "
                                 f"(branch failure) by {mpmath.nstr(abs(got - want), 3)}")
        return closed


def log_from_closed_forms(p, bits=160):
    """Exact rationals (e, x) with log p = e log x, from the B/C
    closed-form combination of p's degree-2 table row.

    Once the closed forms pass their series checks, the combination is
    z q atanh(1/z) + mu phi_L with q and mu rational in the exact z^2:
    one rational logarithm when mu = 0 and z > 1 is rational, or when
    q = 0 and s = sqrt(4-3z^2) > 0 is, as phi_L = log((z^2-2-s)/(z^2-2+s))/s.
    Any other row, or a logarithm other than log p, raises ValueError.
    """
    row = seriesdef.d2_params(p)
    z2 = row.z_squared
    phi_closed_forms(z2, bits)
    alpha = Fraction(6 * row.b - row.a, 24 * row.c)
    beta = Fraction(5 * row.a - 6 * row.b, 24 * row.c)
    w = 3 * (1 - z2) / (2 * (1 - 3 * z2))
    q = w * (alpha - beta * (9 * z2 ** 2 - 9 * z2 + 1))
    mu = -z2 * w * (alpha + beta * (9 * z2 ** 2 - 15 * z2 + 5)) / 2
    z, s = QuadraticRational.root(z2), QuadraticRational.root(4 - 3 * z2)
    if mu == 0 and z.is_rational() and z.a > 1:
        e, x = q * z.a / 2, (z.a + 1) / (z.a - 1)
    elif q == 0 and s.is_rational() and s.a > 0:
        e, x = mu / s.a, (z2 - 2 - s.a) / (z2 - 2 + s.a)
    else:
        raise ValueError(f"p={p}: q={q} and mu={mu} give no rational logarithm")
    if not (e > 0 and x > 0 and x ** e.numerator == p ** e.denominator):
        raise ValueError(f"p={p}: the combination is {e} * log({x}), not log({p})")
    return e, x
