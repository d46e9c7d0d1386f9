"""Series data model and the built-in collection of log p series.

A series here is

    omega = normalizer * sum_{n>=start} p(n)/r(n) * rho^n * M(n)

with M(n) a ratio of rising-factorial products over the motive's
parameter lists. A SeriesSpec stores only the constant lambda and
derives r(n) from the motive and the start index, as lambda times one
of two products of the motive's own linear factors:

    start 1:  r(n) = lambda * prod (v*n + u - v) over num_params u/v,
              the factors of M(n)/M(n-1);
    start 0:  r(n) = lambda * prod (w*n + u) over den_params u/w,
              the factors of M(n+1)/M(n).

Either way 1/r(n) cancels against a factor of M(n) or M(n+1), which
lets binary splitting carry the sum in three integers (see binsplit).
The module holds the fixed catalog of fast log series, the conversions
between the two printed d=2 parameter conventions, and the variable-x
families: beta_family derives them from a beta integral on the
gamma-quotient motives (m, nu) with odd m and even nu (level1, d4, d6);
level2, motive (1, 1), is written out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import mpmath

from .exactnum import FixedReal, IntPoly


# ----------------------------------------------------------------------
#  Data model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Motive:
    """Hypergeometric factor H(n) = rho^n * M(n).

    M(n) is the ratio of rising factorials prod (num)_n / prod (den)_n;
    parameters live in (0,1], the two lists never share an element, and
    |rho| <= 1 so the factor stays bounded.
    """

    num_params: Tuple[Fraction, ...]
    den_params: Tuple[Fraction, ...]
    rho: Fraction

    def __post_init__(self):
        num = tuple(Fraction(v) for v in self.num_params)
        den = tuple(Fraction(v) for v in self.den_params)
        object.__setattr__(self, "num_params", num)
        object.__setattr__(self, "den_params", den)
        object.__setattr__(self, "rho", Fraction(self.rho))
        if len(num) != len(den) or not num:
            raise ValueError("motive needs equally many parameters on both sides")
        for v in num + den:
            if not 0 < v <= 1:
                raise ValueError(f"motive parameter {v} outside (0,1]")
        if set(num) & set(den):
            raise ValueError("motive parameter lists must be disjoint")
        if abs(self.rho) > 1:
            raise ValueError(f"|rho| = {abs(self.rho)} > 1, factor unbounded")

    @property
    def d(self):
        return len(self.num_params)

    def value(self, n):
        """Exact M(n) (without the rho^n factor)."""
        out = Fraction(1)
        for k in range(1, n + 1):
            for r in self.num_params:
                out *= k - 1 + r
            for q in self.den_params:
                out /= k - 1 + q
        return out


@dataclass(frozen=True)
class SeriesSpec:
    motive: Motive
    numerator_poly: IntPoly
    denominator_scale: Fraction
    normalizer: Fraction
    start_index: int
    label: str

    def __post_init__(self):
        object.__setattr__(self, "denominator_scale",
                           Fraction(self.denominator_scale))
        object.__setattr__(self, "normalizer", Fraction(self.normalizer))
        if self.start_index not in (0, 1):
            raise ValueError("start_index must be 0 or 1")
        if self.denominator_scale == 0:
            raise ValueError(f"{self.label}: denominator scale must be nonzero")

    @property
    def denominator_poly(self) -> IntPoly:
        """r(n) = denominator_scale * denominator_basis(motive, start)."""
        return (denominator_basis(self.motive, self.start_index)
                * self.denominator_scale)

    def term(self, n):
        """Exact value of term n including normalizer (slow; for testing)."""
        return (self.normalizer * self.numerator_poly(n)
                / self.denominator_poly(n)
                * self.motive.rho ** n * self.motive.value(n))


@dataclass(frozen=True)
class D2Params:
    """One row of the d=2 series table, in both printed conventions.

    The `alpha` form sums (alpha*n+beta)/(n(2n-1)) from n=1 with weight
    1/gamma; the `a` form sums (a*n+b)/((6n+1)(6n+5)) from n=0 with
    weight 1/c. `z_squared` is the exact square of the algebraic point
    z of the closed forms: it is rational for every row, and the rate is
    rho = 4/(27 z^2 (1-z^2)^2).
    """

    p: int
    alpha: int
    beta: int
    gamma: int
    a: int
    b: int
    c: int
    rho: Fraction
    z_squared: Fraction

    def __post_init__(self):
        if d2_convert(self.alpha, self.beta, self.gamma, self.rho) != \
                (self.a, self.b, self.c):
            raise ValueError(f"p={self.p}: the two parameter forms disagree")
        z2 = self.z_squared
        if Fraction(4) / (27 * z2 * (1 - z2) ** 2) != self.rho:
            raise ValueError(f"p={self.p}: rho inconsistent with z^2")


def denominator_basis(motive: Motive, start: int) -> IntPoly:
    """The integer product of linear factors that a series of `motive`
    starting at `start` divides by, up to a constant: over num_params
    u/v the factors v*n + u - v (start 1), over den_params u/w the
    factors w*n + u (start 0). Each is positive from n = start on."""
    coeffs = [1]
    for f in motive.num_params if start == 1 else motive.den_params:
        coeffs = _times_linear(coeffs, f.denominator,
                               f.numerator - f.denominator * start)
    return IntPoly(coeffs)


def _times_linear(coeffs, a, c):
    """The ascending int coefficients of coeffs(n) * (a n + c)."""
    return [c * high + a * low for high, low in zip(coeffs + [0], [0] + coeffs)]


# ----------------------------------------------------------------------
#  Generic operations
# ----------------------------------------------------------------------

def binary_splitting_cost(spec: SeriesSpec, bits: int = 96) -> FixedReal:
    """-4d / ln|rho|: a priori ranking of series speed (lower is faster)."""
    rho = spec.motive.rho
    if abs(rho) >= 1:
        raise ValueError(f"{spec.label}: |rho| >= 1, series diverges")
    if rho == 0:
        return FixedReal(0, bits)
    with mpmath.workprec(bits + 32):
        log_rho = mpmath.log(mpmath.mpf(abs(rho).numerator)) \
            - mpmath.log(mpmath.mpf(abs(rho).denominator))
        cost = -4 * spec.motive.d / log_rho
        return FixedReal(int(mpmath.ldexp(cost, bits)), bits)


def estimate_terms(spec: SeriesSpec, decimal_digits: int) -> int:
    """An estimate of the least N with |rho|^N <= 10^-(digits+10):
    max(1, ceil((digits + 10) ln 10 / ln(1/|rho|))) in floats, one off
    at most where that quotient lies within rounding of an integer. It
    sizes work (betaproof's guard, the benchmark's probe); no sum stops
    at it, as binsplit proves its own term counts."""
    if decimal_digits < 1:
        raise ValueError("need at least one digit")
    rho = spec.motive.rho
    if abs(rho) >= 1:
        raise ValueError(f"{spec.label}: |rho| >= 1, series diverges")
    if rho == 0:
        return 1
    rate = math.log(rho.denominator) - math.log(abs(rho.numerator))
    return max(1, math.ceil((decimal_digits + 10) * math.log(10) / rate))


# ----------------------------------------------------------------------
#  Fixed catalog
# ----------------------------------------------------------------------

_SIG6 = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 6), Fraction(5, 6)))
_SIG4 = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))


def _spec(label, num_coeffs, den_scale, rho, params, normalizer=1):
    """A start-1 catalog row, r(n) = den_scale * denominator_basis(...)."""
    return SeriesSpec(
        motive=Motive(params[0], params[1], Fraction(rho)),
        numerator_poly=IntPoly(num_coeffs),
        denominator_scale=den_scale,
        normalizer=Fraction(normalizer),
        start_index=1,
        label=label,
    )


_M4A = ((Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(5, 6)),
        (Fraction(1, 10), Fraction(3, 10), Fraction(7, 10), Fraction(9, 10)))
_M4B = ((Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 10), Fraction(3, 10), Fraction(7, 10), Fraction(9, 10)))
_M4C = ((Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 12), Fraction(5, 12), Fraction(7, 12), Fraction(11, 12)))
_M6 = ((Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
        Fraction(1, 6), Fraction(5, 6)),
       (Fraction(1, 14), Fraction(3, 14), Fraction(5, 14), Fraction(9, 14),
        Fraction(11, 14), Fraction(13, 14)))

_CATALOG = {
    "log2-eq8": lambda: _spec(
        "log2-eq8", [-297, 1794], 2, Fraction(1, 3888), _SIG6),
    "log3-eq8a": lambda: _spec(
        "log3-eq8a", [-14, 88], 1, Fraction(1, 243), _SIG6),
    "log5-eq8b": lambda: _spec(
        "log5-eq8b", [-62, 364], -1, Fraction(-1, 675), _SIG6),
    "log2-eq9": lambda: _spec(
        "log2-eq9", [-295245, 4353342, -15397068, 13885704], 2,
        Fraction(1, 1350000), _M4A),
    "log2-eq11": lambda: _spec(
        "log2-eq11", [-81891, 1209726, -4300512, 3927264], 4,
        Fraction(1, 450000), _M4B),
    "log2-eq13": lambda: _spec(
        "log2-eq13", [-13858, 223397, -742257, 686430], 3,
        Fraction(1, 221184), _M4C),
    "log3-eq15a": lambda: _spec(
        "log3-eq15a", [-3040, 44804, -158016, 141168], 1,
        Fraction(3, 50000), _M4A),
    "log2-eq18": lambda: _spec(
        "log2-eq18",
        [-226846575, 5510613042, -40884797604, 126495134424,
         -169950180480, 81969540480], 1,
        Fraction(1, 355770576), _M6, normalizer=Fraction(1, 4)),
    "log7-tableI": lambda: _spec(
        "log7-tableI", [-16, 312], 1, Fraction(27, 196),
        _SIG6, normalizer=Fraction(1, 81)),
    "log10-tableI": lambda: _spec(
        "log10-tableI", [23, -126], 1, Fraction(-1, 80),
        _SIG6, normalizer=Fraction(1, 2)),
}

# the constant each catalog entry converges to, as an exact rational
CATALOG_TARGETS = {
    "log2-eq8": 2, "log3-eq8a": 3, "log5-eq8b": 5, "log2-eq9": 2,
    "log2-eq11": 2, "log2-eq13": 2, "log3-eq15a": 3, "log2-eq18": 2,
    "log7-tableI": 7, "log10-tableI": 10,
}


def catalog_labels():
    return tuple(_CATALOG)


def catalog_get(label: str) -> SeriesSpec:
    try:
        builder = _CATALOG[label]
    except KeyError:
        raise KeyError(f"unknown series label {label!r}; "
                       f"known: {', '.join(_CATALOG)}") from None
    return builder()


def cheapest_label(p) -> str:
    """The catalog series for log p with the lowest binary splitting cost."""
    labels = [lab for lab in catalog_labels() if CATALOG_TARGETS[lab] == p]
    if not labels:
        raise ValueError(f"no catalog series targets log({p})")
    return min(labels, key=lambda lab: float(
        binary_splitting_cost(catalog_get(lab))))


def catalog_export() -> str:
    """JSON document describing every built-in series."""
    rows = []
    for label in catalog_labels():
        spec = catalog_get(label)
        cost = binary_splitting_cost(spec, bits=128)
        with mpmath.workprec(128):
            cost_text = mpmath.nstr(mpmath.mpf(cost.mantissa)
                                    / 2 ** cost.bit_precision, 20)
        rows.append({
            "label": label,
            "d": spec.motive.d,
            "rho": str(spec.motive.rho),
            "cost": cost_text,
            "motive_num": [str(v) for v in spec.motive.num_params],
            "motive_den": [str(v) for v in spec.motive.den_params],
            "numerator_poly": [str(c) for c in spec.numerator_poly.coefficients],
            "denominator_poly": [str(c) for c in
                                 spec.denominator_poly.coefficients],
            "normalizer": str(spec.normalizer),
            "start_index": spec.start_index,
        })
    return json.dumps(rows, indent=2)


# ----------------------------------------------------------------------
#  d=2 parameter table and conversions
# ----------------------------------------------------------------------

def d2_convert(alpha: int, beta: int, gamma: int, rho) -> Tuple[int, int, int]:
    """Convert the n=1 form (alpha, beta, gamma) to the n=0 form (a, b, c)."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    rho = Fraction(rho)
    den = rho.denominator
    u = (18 * rho.numerator * alpha,
         18 * rho.numerator * (alpha + beta),
         den * gamma)
    g = math.gcd(*u)
    return (u[0] // g, u[1] // g, u[2] // g)


def d2_convert_inverse(a: int, b: int, c: int, rho) -> Tuple[int, int, int]:
    """Convert the n=0 form (a, b, c) back to the n=1 form (alpha, beta, gamma)."""
    if c == 0:
        raise ValueError("c must be nonzero")
    rho = Fraction(rho)
    sign = -1 if rho < 0 else 1
    den = rho.denominator
    v = (sign * den * a,
         sign * den * (b - a),
         sign * 18 * c * rho.numerator)
    g = math.gcd(*v)
    return (v[0] // g, v[1] // g, v[2] // g)


_D2_TABLE = {
    2: dict(alpha=1794, beta=-297, gamma=2, a=598, b=499, c=144,
            rho=Fraction(1, 3888), z_squared=Fraction(9)),
    3: dict(alpha=88, beta=-14, gamma=1, a=176, b=148, c=27,
            rho=Fraction(1, 243), z_squared=Fraction(4)),
    5: dict(alpha=-364, beta=62, gamma=1, a=728, b=604, c=75,
            rho=Fraction(-1, 675), z_squared=Fraction(-4)),
    7: dict(alpha=312, beta=-16, gamma=81, a=468, b=444, c=49,
            rho=Fraction(27, 196), z_squared=Fraction(16, 9)),
    10: dict(alpha=-126, beta=23, gamma=2, a=1134, b=927, c=80,
             rho=Fraction(-1, 80), z_squared=Fraction(-5, 3)),
}


def d2_params(p: int) -> D2Params:
    """Table row for the five tabulated d=2 series (p in {2,3,5,7,10})."""
    if p not in _D2_TABLE:
        raise KeyError(f"no d=2 parameter row for p={p}")
    return D2Params(p=p, **_D2_TABLE[p])


def d2_series_from_abc(a: int, b: int, c: int, rho, label: str) -> SeriesSpec:
    """Series for the n=0 convention: (1/c) sum (a n + b)/((6n+1)(6n+5)) H(n)."""
    return SeriesSpec(
        motive=Motive(_SIG6[0], _SIG6[1], Fraction(rho)),
        numerator_poly=IntPoly([b, a]),
        denominator_scale=Fraction(1),
        normalizer=Fraction(1, c),
        start_index=0,
        label=label,
    )


def d2_integer_form(spec: SeriesSpec) -> Tuple[int, int, int]:
    """Fold the normalizer into the linear numerator: coprime (a, b, c), c > 0,
    such that spec = (1/c) sum (a n + b)/denominator."""
    coeffs = [spec.normalizer * x for x in spec.numerator_poly.coefficients]
    if len(coeffs) != 2:
        raise ValueError("need a linear numerator")
    b_, a_ = coeffs
    c_ = math.lcm(a_.denominator, b_.denominator)
    a_i, b_i = int(a_ * c_), int(b_ * c_)
    g = math.gcd(a_i, b_i, c_)
    return (a_i // g, b_i // g, c_ // g)


# ----------------------------------------------------------------------
#  Parametric families: level 2 by hand, the rest by beta_family
# ----------------------------------------------------------------------

def level2_series(p) -> SeriesSpec:
    """Signature-4 family: alternating, converges for (p-1)^4 < 16p(p+1)^2."""
    p = Fraction(p)
    if p <= 0 or (p - 1) ** 4 >= 16 * p * (p + 1) ** 2:
        raise ValueError(f"p={p} outside the level-2 convergence region")
    rho = -((p - 1) ** 4) / (16 * p * (p + 1) ** 2)
    return SeriesSpec(
        motive=Motive(_SIG4[0], _SIG4[1], rho),
        numerator_poly=IntPoly([p * p + 10 * p + 1,
                                2 * (p * p + 6 * p + 1)]),
        denominator_scale=Fraction(1),
        normalizer=(p - 1) / (2 * p * (p + 1)),
        start_index=0,
        label=f"log({p})-level2",
    )


def gamma_quotient_motive(m, nu):
    """Pochhammer parameters of lam^n Gamma(nu n+1) Gamma(m n+1/2) / Gamma(N n+1/2).

    Gauss multiplication splits each gamma factor into n-th Pochhammer
    symbols at j/nu, (2j-1)/(2m) and (2j-1)/(2N); entries common to both
    sides cancel. Returns (numerator_params, denominator_params) sorted
    ascending.
    """
    if m < 0 or nu < 1:
        raise ValueError("need m >= 0 and nu >= 1")
    n_count = m + nu
    tops = [Fraction(j, nu) for j in range(1, nu + 1)]
    tops += [Fraction(2 * j - 1, 2 * m) for j in range(1, m + 1)]
    bots = [Fraction(2 * j - 1, 2 * n_count) for j in range(1, n_count + 1)]
    for value in list(tops):
        if value in bots:
            tops.remove(value)
            bots.remove(value)
    return tuple(sorted(tops)), tuple(sorted(bots))


def gamma_quotient_lambda(m, nu):
    """The growth constant N^N / (m^m nu^nu) with N = m + nu."""
    n_count = m + nu
    return Fraction(n_count ** n_count, m ** m * nu ** nu)


def beta_family(m, nu, x, name) -> SeriesSpec:
    """The start-0 series for log x on the gamma-quotient motive (m, nu).

    With a = (x+1)/(x-1), N = m + nu, X = 1 - t^2 and
    Y = (X/(1-a^2))^(nu/2) (t/a)^m, F = log((t+a)/(t-a)) + log((1-Y)/(1+Y))/N
    has F(1) - F(0) = log x, and for odd m and even nu F' = 2u(X)/v(X),
    v = 1 - Y^2 = 1 - lam rho X^nu (1-X)^m. Expanding 1/v makes each term
    a beta integral B(nu n+k, m n+1/2): log x = sum_n rho^n M(n) G(n),
    G(n) = sum_k A_k prod_{j<k}(nu n+j) / prod_{j<=k}(N n+j-1/2), A_k the
    X^(k-1) coefficient of u. G times the motive's denominator must be a
    polynomial, or ValueError. Written in b = 1/a, u has a factor b, so
    x = 1 gives the b -> 0 limit with normalizer 0.

    In ints: x = r/s, B = r - s, C = r + s and E = 4rs give b = B/C and
    lam rho = B^(2N) / (C^(2m) E^nu), N C^(2m-2) E^nu u/b has int
    coefficients, and G, on the doubled factors 2(nu n+j) and 2N n+2j-1,
    is pseudo-divided by the 2N n+2j-1 the motive's denominator lacks.
    """
    if m < 1 or m % 2 == 0 or nu < 2 or nu % 2:
        raise ValueError(f"beta_family needs odd m and even nu, got ({m}, {nu})")
    x, n_count = Fraction(x), m + nu
    r, s = x.numerator, x.denominator
    B, C, E = r - s, r + s, 4 * r * s
    rho = None if x <= 0 else (Fraction(B ** (2 * n_count), C ** (2 * m) * E ** nu)
                               / gamma_quotient_lambda(m, nu))
    if rho is None or abs(rho) >= 1:
        raise ValueError(f"p={x} outside the {name} convergence region")
    motive = Motive(*gamma_quotient_motive(m, nu), rho)
    # -B^(2j) t_j is X^j of the quotient of -B^(2N) X^nu (1-X)^m by E + B^2 X
    kernel = [0] * nu + [(-1) ** i * math.comb(m, i) for i in range(m + 1)]
    t, weights = kernel[-1], [0] * n_count
    for j in range(n_count - 1, -1, -1):
        weights[j] = -n_count * B ** (2 * j) * t
        t = B ** (2 * (n_count - j)) * kernel[j] - E * t
    # minus X^(nu/2-1) (1-X)^((m-1)/2) (N X - nu) B^(N-1)/(N (-E)^(nu/2) C^(m-1))
    y_term = [0] * (nu // 2 - 1) + [-nu, n_count]
    for _ in range(m // 2):
        y_term = _times_linear(y_term, -1, 1)
    for j, y in enumerate(y_term):
        weights[j] -= ((-1) ** (nu // 2) * B ** (n_count - 1) * C ** (m - 1)
                       * E ** (nu // 2) * y)
    # 2 G N C^(2m-2) E^nu / b over prod_{j<=N}(2N n+2j-1), nested in k
    top, full, divisor = [], [1], [1]
    for k in range(n_count, 0, -1):
        top = [f * weights[k - 1] + g for f, g
               in zip(full, _times_linear(top, 2 * nu, 2 * k))]
        full = _times_linear(full, 2 * n_count, 2 * k - 1)
        if Fraction(2 * k - 1, 2 * n_count) not in motive.den_params:
            divisor = _times_linear(divisor, 2 * n_count, 2 * k - 1)
    # the motive's denominator holds the other factors over their contents
    content = math.prod(2 * n_count // f.denominator for f in motive.den_params)
    # exact pseudo-division: lead^(shift+1) top = numerator divisor + rest
    lead, shift = divisor[-1], len(top) - len(divisor)
    rest, numerator = [c * lead ** (shift + 1) for c in top], [0] * (shift + 1)
    for i in range(shift, -1, -1):
        q = numerator[i] = rest[i + len(divisor) - 1] // lead
        rest[i:i + len(divisor)] = [was - q * c for was, c in zip(rest[i:], divisor)]
    if any(rest):
        raise ValueError(f"({m}, {nu}): the summand has no polynomial numerator")
    numerator, scale = IntPoly(numerator).primitive()
    return SeriesSpec(motive, numerator, Fraction(1), scale * Fraction(
        2 * B, n_count * C ** (2 * m - 1) * E ** nu * content * lead ** (shift + 1)),
        0, f"log({x})-{name}")


def level1_series(p) -> SeriesSpec:
    """Signature-6 family, motive (1, 2): |p - 7| < 4*sqrt(3), p > 0."""
    return beta_family(1, 2, p, "level1")


def d4_family(p) -> SeriesSpec:
    """Degree-4 family, motive (3, 2): rate O((p-1)^10) near p = 1."""
    return beta_family(3, 2, p, "d4")


def d6_family(p) -> SeriesSpec:
    """Degree-6 family, motive (3, 4): rate O((p-1)^14) near p = 1."""
    return beta_family(3, 4, p, "d6")
