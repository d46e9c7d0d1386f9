"""Telescoping certificate checks for the log p companion pairs.

Two bivariate companions F(n, k), built from half-integer beta factors,
interlace the pair of slowly convergent Gauss series for log p.
Re-indexing F along a lattice direction (s, t) and telescoping against a
rational certificate R(n, k) collapses the double sum onto the fast
central-binomial series of the catalog, provided the pair identity

    F(n+1, k) - F(n, k) = R(n, k+1) F(n, k+1) - R(n, k) F(n, k)

holds. Dividing it by F(n, k) leaves only the companion's two shift
ratios, A = F(n+1, k)/F(n, k) and B = F(n, k+1)/F(n, k), each a
constant in Q(i) times a ratio of integer linear factors:

    A - 1 = R(n, k+1) B - R(n, k).

Each registry certificate is derived from its (variant, p, s, t): this
form is linear in the coefficients of R's quadratic numerator, and six
points fix them. `certificate_telescoping_check` then tests the form
exactly at every point of a finite grid. That is an exact check on the
grid, not a proof of the identity: no degree bound ties the grid to all
(n, k) yet. The sum along k = 0 is a catalog row that the registry
names, proved equal term by term (`certificate_series`) and summed by
binary splitting. No code checks the WZ limit conditions (the row sums
over k must vanish as n grows), so a `wz-verify` line covers only the
grid telescoping and the agreement of the certificate sum with log p.

All arithmetic is exact and, past the two step constants, on ints. A
certificate is its cleared coefficients; each step ratio is a Gaussian
integer over an int constant denominator times a ratio of int linear
factors. The derivation, the grid check and the proof multiply through
by those denominators, so no Q(i) value (`QuadraticRational` at d = -1)
is built per grid point: only the closed forms and `ratio` are.
"""

import dataclasses
import functools
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

from . import binsplit, seriesdef
from .exactnum import FixedReal, IntPoly, QuadraticRational


def _cleared(q):
    """q in Q(i) as ints (re, im, den), q = (re + i im) / den, den > 0."""
    den = lcm(q.a.denominator, q.b.denominator)
    return (q.a.numerator * (den // q.a.denominator),
            q.b.numerator * (den // q.b.denominator), den)


@dataclasses.dataclass(frozen=True)
class WZContext:
    """Which companion (variant 1 or 2), for which p, on which lattice.

    Rational parameters must be integers in 1..5: the source series for
    log p diverge outside |p - 3| < 2*sqrt(2), and p = 1 is the
    degenerate endpoint where every companion value vanishes. The only
    supported complex parameters are 2+i and 2-i, whose conjugate logs
    add up to log 5.
    """

    variant: int
    p: QuadraticRational
    s: int
    t: int

    def __post_init__(self):
        if not isinstance(self.p, QuadraticRational):
            object.__setattr__(self, "p", QuadraticRational(self.p, 0, -1))
        if self.variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        if self.s < 1 or self.t < 0:
            raise ValueError("lattice shift needs s >= 1 and t >= 0")
        p = self.p
        if p.is_rational():
            ok = p.a.denominator == 1 and 1 <= p.a <= 5
        else:
            ok = p.a == 2 and abs(p.b) == 1
        if p.d != -1 or not ok:
            raise ValueError(f"unsupported companion parameter {p!r}")

    @property
    def target(self):
        """The integer whose log the sum reaches: p, or the norm of a complex p."""
        return int(self.p.a if self.p.is_rational() else self.p.norm())

    # One step of base_f from (N, K) multiplies by a constant in Q(i) and
    # a ratio of linear factors over 2N + 2K + 3: 2N + 3 - variant for an
    # n-step, 2K + variant for a k-step. The constants are computed on
    # first use and kept cleared, as (re, im, den).

    def _base_step_constants(self):
        p = self.p
        sum_step = (p - 1) ** 2 / (p + 1) ** 2
        product_step = -((p - 1) ** 2 / (p * 4))
        if self.variant == 1:
            return product_step, sum_step
        return sum_step, product_step

    @functools.cached_property
    def n_constant(self):
        """A's constant factor, s base n-steps and t base k-steps, as (re, im, den)."""
        n_step, k_step = self._base_step_constants()
        return _cleared(n_step ** self.s * k_step ** self.t)

    @functools.cached_property
    def k_constant(self):
        """B's constant factor, one base k-step, as (re, im, den)."""
        return _cleared(self._base_step_constants()[1])

    def steps(self, n, k):
        """The positive int step factors (na, da, nb, db) at (n, k): A is
        n_constant times na/da, B is k_constant times nb/db."""
        big_n, big_k = self.s * n, k + self.t * n
        n_first, k_first = 2 * big_n + 3 - self.variant, 2 * big_k + self.variant
        base = 2 * (big_n + big_k) + 3
        na = (prod(range(n_first, n_first + 2 * self.s, 2))
              * prod(range(k_first, k_first + 2 * self.t, 2)))
        return na, prod(range(base, base + 2 * (self.s + self.t), 2)), k_first, base


def _monomials(n, k):
    return (k * k, n * k, k, n * n, n, 1)


def _grid_factor(ctx, n, k):
    step = 2 * (ctx.s + ctx.t)
    return (step * n + 2 * k + 3) * (step * n + 2 * k + 5)


@dataclasses.dataclass(frozen=True)
class Certificate:
    """Bivariate rational certificate R = G/F for a shifted companion.

    It is kept cleared: R(n, k) = (real.m + i imag.m) / (scale g(n, k)),
    with m the monomials (k^2, nk, k, n^2, n, 1), g(n, k) =
    (2(s+t)n + 2k + 3)(2(s+t)n + 2k + 5) and an int scale > 0. Both are
    positive for n, k >= 0, so R has no pole there.
    """

    context: WZContext
    scale: int
    real: tuple
    imag: tuple
    label: str

    def numerator(self, n, k):
        """The ints (real.m, imag.m) at (n, k)."""
        m = _monomials(n, k)
        return sum(map(mul, self.real, m)), sum(map(mul, self.imag, m))

    def ratio(self, n, k):
        """Exact R(n, k) in Q(i)."""
        den = self.scale * _grid_factor(self.context, n, k)
        return QuadraticRational(*(Fraction(x, den) for x in self.numerator(n, k)), -1)


def _beta_row(k, n):
    # B(k + 1/2, n + 1) = n! / prod_{j=0..n} (k + 1/2 + j), exactly rational
    # once the half integers are cleared: n! 2^(n+1) / prod (2k + 1 + 2j).
    return Fraction(factorial(n) << (n + 1),
                    prod(range(2 * k + 1, 2 * k + 2 * n + 3, 2)))


def base_f(ctx, n, k):
    """Exact companion value F(n, k) for the context's variant.

    Variant 1 carries (-1)^n and the beta factor B(k+1/2, n+1); variant 2
    carries (-1)^k and B(k+1, n+1/2) = B(n+1/2, k+1). Both decay
    geometrically along k rows, as the WZ limit conditions need; nothing
    here checks those conditions.
    """
    if n < 0 or k < 0:
        raise ValueError("companion arguments must be nonnegative")
    p = ctx.p
    if ctx.variant == 1:
        sign = -1 if n % 2 else 1
        shell = (p - 1) ** (2 * n + 2 * k + 1) / ((p * 4) ** n * (p + 1) ** (2 * k + 1))
        return shell * (sign * _beta_row(k, n))
    sign = -1 if k % 2 else 1
    shell = (p - 1) ** (2 * n + 2 * k + 1) / ((p * 4) ** (k + 1) * (p + 1) ** (2 * n - 1))
    return shell * (sign * _beta_row(n, k))


def f_st(ctx, n, k):
    """Companion on the shifted lattice: F(s*n, k + t*n)."""
    return base_f(ctx, ctx.s * n, k + ctx.t * n)


# ----------------------------------------------------------------------
#  Exact telescoping verification
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TelescopingReport:
    label: str
    n_max: int
    k_max: int
    points: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def _cleared_identity(ctx, n, k):
    """The divided identity at (n, k) times a_den da b_den db g(n, k) g(n, k+1).

    With a_den, b_den the constants' denominators and R = r / g, it reads
    lhs == r(n, k+1) (b_re + i b_im) u - r(n, k) v. Returns the ints
    (lhs_re, lhs_im, u, v); for a certificate's r, whose numerator is
    over `scale`, lhs is multiplied by the scale too.
    """
    a_re, a_im, a_den = ctx.n_constant
    b_den = ctx.k_constant[2]
    na, da, nb, db = ctx.steps(n, k)
    here, right = _grid_factor(ctx, n, k), _grid_factor(ctx, n, k + 1)
    both = b_den * db * here * right
    return ((a_re * na - a_den * da) * both, a_im * na * both,
            nb * a_den * da * here, a_den * b_den * da * db * right)


def certificate_telescoping_check(cert, n_max=20, k_max=20):
    """Check the pair identity exactly at every point of [0,n_max]x[0,k_max].

    It tests A - 1 == R(n, k+1) B - R(n, k) with the context's step
    ratios: the identity divided by F_st(n, k), which for p != 1 has no
    zero factor. At p = 1 F vanishes and every point passes. Each point
    is multiplied through by its positive denominators
    (`_cleared_identity` and the scale) and compares the real and the
    imaginary part as ints. The result is exact on the grid and proves
    nothing off it.
    """
    ctx = cert.context
    failures = []
    if ctx.p != 1:
        b_re, b_im, _ = ctx.k_constant
        for n in range(n_max + 1):
            row = [cert.numerator(n, k) for k in range(k_max + 2)]
            for k in range(k_max + 1):
                (x0, y0), (x1, y1) = row[k], row[k + 1]
                re, im, u, v = _cleared_identity(ctx, n, k)
                if (re * cert.scale != (x1 * b_re - y1 * b_im) * u - x0 * v
                        or im * cert.scale != (x1 * b_im + y1 * b_re) * u - y0 * v):
                    failures.append((n, k))
    return TelescopingReport(cert.label, n_max, k_max,
                             (n_max + 1) * (k_max + 1), tuple(failures))


# ----------------------------------------------------------------------
#  Series extraction
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CertificateSum:
    """Partial sum of G(n, 0) as a log p approximation, rounded once."""

    log_value: FixedReal
    terms: int


def certificate_series(cert):
    """The catalog row whose term n + 1 equals X(n) = c Re G(n, 0) for all
    n >= 0 (c = 2 for p = 2 +- i, else 1), proved in five steps; a failed
    step raises a ValueError naming it and the label. 1: the label names
    the row, with terms Y(n). 2: A(n, 0) is a nonzero rational, so X(n) is
    prod_{j<n} A(j, 0) q(n) / g(n) up to a constant, q = c Re(F_st(0, 0)
    r(n, 0)) for R's numerator r. 3: q's coefficients share one sign, so
    X(n) != 0. 4: X(0) = Y(0). 5: the cross-multiplied ratios X(n+1)/X(n)
    = Nx/Dx and Y(n+1)/Y(n) = Ny/Dy agree at n = 0..D, D = (s + t + 4) +
    deg p + deg r + d bounding Nx Dy - Ny Dx's degree for the row's p, r
    and depth d, so they agree for all n; by induction X(n+1) = X(n) Nx/Dx
    = Y(n) Ny/Dy = Y(n+1), as Y(n) = X(n) != 0 makes Dy nonzero."""
    if cert.label not in _REGISTRY:
        raise ValueError(f"{cert.label}: step 1: not a registry label")
    ctx, row = cert.context, seriesdef.catalog_get(_REGISTRY[cert.label][1])
    top, bot, rho = row.motive.num_params, row.motive.den_params, row.motive.rho
    p, r = row.numerator_poly, row.denominator_poly
    a_re, a_im, a_den = ctx.n_constant
    if a_im or not a_re:
        raise ValueError(f"{cert.label}: step 2: A(n, 0) is not a nonzero rational")
    f_re, f_im, f_den = _cleared(f_st(ctx, 0, 0))
    c = 1 if ctx.p.is_rational() else 2
    # q's coefficients from those of the k = 0 monomials n^2, n, 1, the last three
    q = [c * (f_re * x - f_im * y) for x, y in zip(cert.real[3:], cert.imag[3:])]
    if not (min(q) > 0 or max(q) < 0):
        raise ValueError(f"{cert.label}: step 3: q's coefficients differ in sign")
    if Fraction(q[2], f_den * cert.scale * _grid_factor(ctx, 0, 0)) != row.term(1):
        raise ValueError(f"{cert.label}: step 4: the first term is not {row.label}'s")
    points = range(ctx.s + ctx.t + 4 + p.degree() + r.degree() + len(top) + 3)
    # q, p and r at each point, times a constant: their primitive int multiples
    q, p, r = ([sum(a * m ** j for j, a in enumerate(ints)) for m in points]
               for ints in ([a.numerator for a in poly.primitive()[0].coefficients]
                            for poly in (IntPoly(q[::-1]), p, r)))
    rate = rho * prod(v.denominator for v in bot) / prod(u.denominator for u in top)
    for n, m in zip(points, points[1:-1]):
        na, da = ctx.steps(n, 0)[:2]
        if (q[m] * _grid_factor(ctx, n, 0) * a_re * na * p[m] * r[m + 1]
                * rate.denominator * prod(v.denominator * m + v.numerator for v in bot)
                != q[n] * _grid_factor(ctx, m, 0) * a_den * da * p[m + 1] * r[m]
                * rate.numerator * prod(u.denominator * m + u.numerator for u in top)):
            raise ValueError(f"{cert.label}: step 5: not {row.label}'s ratio at n = {n}")
    return row


def gst_series_sum(cert, bits):
    """c Re G(n, 0) summed over n = 0..N-1, which tends to log p, within
    2^-bits of its limit before the one rounding to `bits` bits: terms 1 to
    N of `certificate_series`'s row, N as binsplit.certified_range proves."""
    row = certificate_series(cert)
    hi, node = binsplit.certified_range(row, bits)
    total = binsplit.node_sum(row, node)
    return CertificateSum(FixedReal.from_rational(total, bits), hi - 1)


# ----------------------------------------------------------------------
#  Certificates derived from (variant, p, s, t), with the row they sum
# ----------------------------------------------------------------------

_REGISTRY = {
    "log2-s2t1": ((1, 2, 2, 1), "log2-eq8"),
    "log2-s1t2": ((2, 2, 1, 2), "log2-eq8"),
    "log3-s2t1": ((1, 3, 2, 1), "log3-eq8a"),
    "log3-s1t2": ((2, 3, 1, 2), "log3-eq8a"),
    "log5-s2t1+i": ((1, QuadraticRational(2, 1, -1), 2, 1), "log5-eq8b"),
    "log5-s1t2+i": ((2, QuadraticRational(2, 1, -1), 1, 2), "log5-eq8b"),
    "log5-s2t1-i": ((1, QuadraticRational(2, -1, -1), 2, 1), "log5-eq8b"),
    "log5-s1t2-i": ((2, QuadraticRational(2, -1, -1), 1, 2), "log5-eq8b"),
}


def _solve(rows):
    """Fraction-free Gauss-Jordan (Bareiss) elimination on an augmented
    square int system. Every division is exact; the solution is
    x_j = top[j] / det, and it returns (top, det)."""
    previous = 1
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        here = lead[col]
        rows = [row if r == col else
                [(here * x - row[col] * y) // previous for x, y in zip(row, lead)]
                for r, row in enumerate(rows)]
        previous = here
    return [row[-1] for row in rows], previous


def _derive(ctx, label):
    """R = r(n, k) / ((2(s+t)n + 2k + 3)(2(s+t)n + 2k + 5)), r quadratic.

    The cleared identity at six points is linear in r's coefficients
    c + i d. Split into real and imaginary parts it is a 12 x 12 int
    system in (c, d); its solution, cleared to the least common
    denominator, is the certificate.
    """
    b_re, b_im, _ = ctx.k_constant
    rows = []
    for n, k in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)):
        re, im, u, v = _cleared_identity(ctx, n, k)
        real = [b_re * m1 * u - m0 * v
                for m0, m1 in zip(_monomials(n, k), _monomials(n, k + 1))]
        imag = [b_im * m1 * u for m1 in _monomials(n, k + 1)]
        rows.append(real + [-x for x in imag] + [re])
        rows.append(imag + real + [im])
    top, det = _solve(rows)
    scale = lcm(*(det // gcd(det, x) for x in top))
    coefficients = tuple(x * scale // det for x in top)
    return Certificate(ctx, scale, coefficients[:6], coefficients[6:], label)


def certificate_labels(target=None):
    """Registry labels, series order: constant, then lattice shift. With
    a target, only those whose sums reach log(target)."""
    return [label for label, (params, _) in _REGISTRY.items()
            if target is None or WZContext(*params).target == target]


@functools.cache
def certificate_get(label):
    """The label's certificate, derived from its (variant, p, s, t)."""
    try:
        params, _ = _REGISTRY[label]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown certificate {label!r}; known labels: {known}") from None
    return _derive(WZContext(*params), label)
