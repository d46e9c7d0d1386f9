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
(n, k) yet. The same ratios build the certificate sum along n, so the
closed form `base_f` is evaluated only where that walk starts. No code
checks the WZ limit conditions (the row sums over k must vanish as n
grows), so a `wz-verify` line covers only the grid telescoping and the
agreement of the certificate sum with log p. All arithmetic is exact,
in Q(i) (`QuadraticRational` at d = -1).
"""

import dataclasses
import functools
from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Callable

from .exactnum import FixedReal, QuadraticRational


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
    # first use.

    def _base_step_constants(self):
        p = self.p
        sum_step = (p - 1) ** 2 / (p + 1) ** 2
        product_step = -((p - 1) ** 2 / (p * 4))
        if self.variant == 1:
            return product_step, sum_step
        return sum_step, product_step

    @functools.cached_property
    def n_constant(self):
        """Constant factor of n_ratio: s base n-steps and t base k-steps."""
        n_step, k_step = self._base_step_constants()
        return n_step ** self.s * k_step ** self.t

    @functools.cached_property
    def k_constant(self):
        """Constant factor of k_ratio: one base k-step."""
        return self._base_step_constants()[1]

    def n_ratio(self, n, k):
        """Exact A = F_st(n+1, k) / F_st(n, k): s n-steps, then t k-steps."""
        big_n, big_k = self.s * n, k + self.t * n
        num = den = 1
        for i in range(self.s):
            num *= 2 * (big_n + i) + 3 - self.variant
        for j in range(self.t):
            num *= 2 * (big_k + j) + self.variant
        for m in range(self.s + self.t):
            den *= 2 * (big_n + big_k + m) + 3
        return self.n_constant * Fraction(num, den)

    def k_ratio(self, n, k):
        """Exact B = F_st(n, k+1) / F_st(n, k): one k-step."""
        big_n, big_k = self.s * n, k + self.t * n
        return self.k_constant * Fraction(2 * big_k + self.variant,
                                          2 * (big_n + big_k) + 3)


@dataclasses.dataclass(frozen=True)
class Certificate:
    """Bivariate rational certificate R = G/F for a shifted companion."""

    context: WZContext
    ratio: Callable[[int, int], QuadraticRational]
    label: str


def _beta_row(k, n):
    # B(k + 1/2, n + 1) = n! / prod_{j=0..n} (k + 1/2 + j), exactly rational
    # once the half integers are cleared: n! 2^(n+1) / prod (2k + 1 + 2j).
    prod = 1
    for j in range(n + 1):
        prod *= 2 * k + 1 + 2 * j
    return Fraction(factorial(n) << (n + 1), prod)


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
    poles: tuple

    @property
    def passed(self):
        return not self.failures and not self.poles


def certificate_telescoping_check(cert, n_max=20, k_max=20):
    """Check the pair identity exactly at every point of [0,n_max]x[0,k_max].

    It tests A - 1 == R(n, k+1) B - R(n, k) with the context's step
    ratios: the identity divided by F_st(n, k), which for p != 1 has no
    zero factor. At p = 1 F vanishes and every point passes. The result
    is exact on the grid and proves nothing off it.

    G(n, k) is R(n, k) * F(s n, k + t n); a certificate pole inside the
    grid is recorded rather than raised so one bad point cannot mask the
    rest of the report.
    """
    ctx = cert.context
    vanishing = ctx.p == 1
    failures = []
    poles = []
    for n in range(n_max + 1):
        row = []
        for k in range(k_max + 2):
            try:
                row.append(cert.ratio(n, k))
            except ZeroDivisionError:
                row.append(None)
        for k in range(k_max + 1):
            here, right = row[k], row[k + 1]
            if here is None or right is None:
                poles.append((n, k))
                continue
            if vanishing:
                continue
            if ctx.n_ratio(n, k) - 1 != right * ctx.k_ratio(n, k) - here:
                failures.append((n, k))
    return TelescopingReport(
        cert.label, n_max, k_max, (n_max + 1) * (k_max + 1),
        tuple(failures), tuple(poles),
    )


# ----------------------------------------------------------------------
#  Series extraction
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CertificateSum:
    """Partial sum of G(n, 0), accumulated exactly and rounded once."""

    real: FixedReal
    imag: FixedReal
    terms: int
    conjugate_pair: bool

    @property
    def log_value(self):
        """The log p approximation: the real part, doubled when the
        parameter is one of a conjugate pair (the two logs add up to the
        log of the common norm)."""
        if self.conjugate_pair:
            return FixedReal(self.real.mantissa * 2, self.real.bit_precision)
        return self.real


def exact_series_sum(cert, n_terms):
    """Exact sum of G(n, 0) = R(n, 0) F_st(n, 0) for n = 0..n_terms.

    Horner's rule on F_st(0, 0) (R(0, 0) + A(0) (R(1, 0) + A(1) (...)))
    with A(n) = A(n, 0), innermost bracket first: each step adds a small
    rational to the accumulator. First, a term whose magnitude fails to
    decrease raises ValueError; that test divides both squared
    magnitudes by |F_st(n-1, 0)|^2 (at p = 1, A = 0 and it never fires).
    """
    ctx = cert.context
    ratios = [cert.ratio(0, 0)]
    steps = []
    for n in range(1, n_terms + 1):
        here = cert.ratio(n, 0)
        step = ctx.n_ratio(n - 1, 0)
        size, previous = here.norm() * step.norm(), ratios[-1].norm()
        if (size or previous) and size >= previous:
            raise ValueError("series terms do not decrease; refusing to sum")
        ratios.append(here)
        steps.append(step)
    total = ratios.pop()
    while steps:
        total = ratios.pop() + steps.pop() * total
    return total * f_st(ctx, 0, 0)


def gst_series_sum(cert, n_terms, bits):
    """Sum G(n, 0) for n = 0..n_terms; the limit is log p.

    The accumulation is exact arithmetic in Q(i); the result
    is rounded to `bits` fractional bits only at the end. Terms whose
    magnitude fails to decrease abort the sum (the certificate's series
    would be divergent, so its value would be meaningless).
    """
    total = exact_series_sum(cert, n_terms)
    return CertificateSum(
        real=FixedReal.from_rational(total.a, bits),
        imag=FixedReal.from_rational(total.b, bits),
        terms=n_terms + 1,
        conjugate_pair=not cert.context.p.is_rational(),
    )


# ----------------------------------------------------------------------
#  Certificates derived from (variant, p, s, t)
# ----------------------------------------------------------------------

_REGISTRY = {
    "log2-s2t1": (1, 2, 2, 1),
    "log2-s1t2": (2, 2, 1, 2),
    "log3-s2t1": (1, 3, 2, 1),
    "log3-s1t2": (2, 3, 1, 2),
    "log5-s2t1+i": (1, QuadraticRational(2, 1, -1), 2, 1),
    "log5-s1t2+i": (2, QuadraticRational(2, 1, -1), 1, 2),
    "log5-s2t1-i": (1, QuadraticRational(2, -1, -1), 2, 1),
    "log5-s1t2-i": (2, QuadraticRational(2, -1, -1), 1, 2),
}


def _monomials(n, k):
    return (k * k, n * k, k, n * n, n, 1)


def _grid_factor(ctx, n, k):
    step = 2 * (ctx.s + ctx.t)
    return (step * n + 2 * k + 3) * (step * n + 2 * k + 5)


def _solve(rows):
    """Gauss-Jordan elimination on an augmented square system over Q(i)."""
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                rows[r] = [x - row[col] * y for x, y in zip(row, rows[col])]
    return [row[-1] for row in rows]


def _derive(ctx, label):
    """R = r(n, k) / ((2(s+t)n + 2k + 3)(2(s+t)n + 2k + 5)), r quadratic.

    The divided identity at six points fixes r's coefficients in Q(i);
    cleared to ints, they make each R(n, k) int arithmetic.
    """
    rows = []
    for n, k in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)):
        here, right = _grid_factor(ctx, n, k), _grid_factor(ctx, n, k + 1)
        b = ctx.k_ratio(n, k)
        rows.append([b * Fraction(m1, right) - Fraction(m0, here)
                     for m0, m1 in zip(_monomials(n, k), _monomials(n, k + 1))]
                    + [ctx.n_ratio(n, k) - 1])
    coefficients = _solve(rows)
    scale = lcm(*(c.a.denominator for c in coefficients),
                *(c.b.denominator for c in coefficients))
    real = [(c.a * scale).numerator for c in coefficients]
    imag = [(c.b * scale).numerator for c in coefficients]

    def ratio(n, k):
        monomials = _monomials(n, k)
        den = scale * _grid_factor(ctx, n, k)
        return QuadraticRational(Fraction(sum(map(mul, real, monomials)), den),
                                 Fraction(sum(map(mul, imag, monomials)), den), -1)
    return Certificate(ctx, ratio, label)


def certificate_labels(target=None):
    """Registry labels, series order: constant, then lattice shift. With
    a target, only those whose sums reach log(target)."""
    return [label for label, params in _REGISTRY.items()
            if target is None or WZContext(*params).target == target]


@functools.cache
def certificate_get(label):
    """The label's certificate, derived from its (variant, p, s, t)."""
    try:
        params = _REGISTRY[label]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown certificate {label!r}; known labels: {known}") from None
    return _derive(WZContext(*params), label)
