"""Integer-relation discovery over a lattice of prime-power rates.

Fixing the motive parameter lists and walking the rate over products of
small prime powers, each candidate rate yields weighted sums s_0..s_h,
summed only as far as a proven tail bound needs (_tail_bits). An exact
integer LLL reduction then asks whether an integer combination of those
series, with coefficient norm under a stated bound, reproduces the target
constant; when none does, the reduced basis either proves that no such
combination exists or a warning says it could not decide. Detection alone
is not trusted: every hit is checked in exact rationals, re-tested against
a finer slice of the target, rebuilt as a series, and must reproduce the
target to 50 digits through binary splitting before it is reported.

Detection at one point (its sums and one LLL) depends on no other
point, so from FORK_POINTS points on, a forked child detects about half
of them (binsplit.run_beside). This process logs the warnings and
confirms the detections in point order, as a one-process run does.
"""

from __future__ import annotations

import contextvars
import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from . import binsplit
from .exactnum import FixedReal, IntPoly
from .seriesdef import Motive, SeriesSpec

log = logging.getLogger(__name__)

LOG2_10 = math.log2(10)

# Coefficient bits the search asks lindep for.
COEFF_BITS = 64

# Lattice rates at or above this cannot converge usefully and are skipped.
RHO_BOUND = Fraction(3, 5)

# search splits its points with a forked child from this many points on.
# `search --digits 200`, one process against two, medians of 20 alternating
# pairs (2 vCPUs, CPython 3.11): --p 3 --primes 3 at --exponents=-5:-5 (2
# points) 3.9/6.1 ms, -2:0 (4) 6.9/8.2, -4:0 (8) 12.3/10.3, -8:0 (16)
# 24.9/22.5; --p 2 --primes 2,3 at -8:-7,-8:-7 (8 points of few terms)
# 9.3/9.1 ms; two processes won 0, 11, 16, 15 and 15 pairs.
FORK_POINTS = 8

UNDECIDED = ("undecided: no relation accepted, but one with coefficient "
             "norm <= %s is not excluded")

# Set by search to a list that lindep appends its "undecided" verdicts
# to instead of logging them, for search to log in point order.
_held_undecided = contextvars.ContextVar("held_undecided", default=None)


# ----------------------------------------------------------------------
#  Strategy and result types
# ----------------------------------------------------------------------

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin to the first twelve prime bases: exact below
    318665857834031151167461, the least composite passing all twelve."""
    if any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    for a in _WITNESSES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class LatticeStrategy:
    """Which rates to try and when to give up on one.

    cost_bound of 0 disables that filter; RHO_BOUND is always applied.
    working_digits of 0 defers to the 20*(h+2) weight-rule floor.
    """

    primes: Tuple[int, ...]
    exponent_bounds: Tuple[Tuple[int, int], ...]
    cost_bound: float = 0.0
    working_digits: int = 0

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        object.__setattr__(self, "exponent_bounds", tuple(
            (int(lo), int(hi)) for lo, hi in self.exponent_bounds))
        if any(p <= 1 for p in self.primes):
            raise ValueError("primes must be integers > 1")
        for p in self.primes:
            if not _is_prime(p):
                # a composite repeats rates: 3^-3 9^-1 is 3^-5
                raise ValueError(f"primes must be prime; {p} is not")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be distinct")
        if len(self.exponent_bounds) != len(self.primes):
            raise ValueError("need one exponent range per prime")
        if any(lo > hi for lo, hi in self.exponent_bounds):
            raise ValueError("exponent ranges must satisfy min <= max")
        if self.cost_bound < 0 or self.working_digits < 0:
            raise ValueError("bounds cannot be negative")


@dataclass(frozen=True)
class RelationCandidate:
    """A verified relation sum(alpha_i s_i) = beta * target.

    coefficients = (beta, alpha_0, ..., alpha_h) with alpha_h > 0;
    series is the reconstruction whose limit is the target itself.
    """

    coefficients: Tuple[int, ...]
    rho: Fraction
    cost: float
    residual: FixedReal
    series: SeriesSpec

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(int(c) for c in self.coefficients))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if len(self.coefficients) < 2:
            raise ValueError("need at least (beta, alpha_0)")
        if self.coefficients[0] == 0:
            raise ValueError("beta must be nonzero")
        if self.coefficients[-1] == 0:
            raise ValueError("the leading alpha must be nonzero")
        if not 0 < abs(self.rho) < 1:
            raise ValueError("need 0 < |rho| < 1")


# ----------------------------------------------------------------------
#  Partial sums
# ----------------------------------------------------------------------

def _sum_si(motive: Motive, i: int, bits: int) -> Fraction:
    """s_i within 2^-bits: the exact sum over n = 1..N (certified_range) of
    n^i/r(n) * prod_{k<=n} rho*num(k)/den(k), r(n) = prod (v*n - v + u) over
    the numerator parameters u/v, the start-1 series with numerator n^i."""
    spec = SeriesSpec(motive, IntPoly([0] * i + [1]), Fraction(1),
                      Fraction(1), 1, f"s_{i}")
    return binsplit.node_sum(spec, binsplit.certified_range(spec, bits)[1])


# ----------------------------------------------------------------------
#  Relation detection
# ----------------------------------------------------------------------

def lll_reduce(basis: Sequence[Sequence[int]]
               ) -> Tuple[List[List[int]], List[int]]:
    """LLL reduction with delta = 3/4 of linearly independent integer
    rows, in exact integers (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7).

    Returns the reduced rows, which span the same lattice, and their
    Gram determinants d: d[0] = 1 and d[i] is that of the first i rows,
    so the Gram-Schmidt vector b*_i has |b*_i|^2 = d[i+1]/d[i].
    """
    b = [list(row) for row in basis]
    n = len(b)

    def dot(x, y):
        return sum(p * q for p, q in zip(x, y))

    # row i is Cohen's b_(i+1); lam[k][j] = d[j+1] * mu_kj is an integer
    d = [1, dot(b[0], b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [p - q * r for p, r in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("rows are linearly dependent")
                else:
                    d[k + 1] = u
        size_reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            m = lam[k][k - 1]
            new_d = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, k_max + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (new_d * t + m * lam[i][k]) // d[k + 1]
            d[k] = new_d
            k = max(1, k - 1)
            continue
        for l in range(k - 2, -1, -1):
            size_reduce(k, l)
        k += 1
    return b, d


def norm_bound_text(count: int, max_coeff_bits: int) -> str:
    """lindep's coefficient norm bound for `count` values, as text."""
    return f"2^{max_coeff_bits}*sqrt({count})"


def lindep(values: Sequence[FixedReal], max_coeff_bits: int) -> Optional[List[int]]:
    """Integer vector u with u[0] > 0, |u| < B = sqrt(n)*2^max_coeff_bits
    and |sum(u_j * values_j)| < 2^(-prec/2), or None.

    prec is the shared (minimum) precision of the n inputs and must
    cover k = n*max_coeff_bits + 64 bits, otherwise the call refuses
    rather than guess. The rows (e_j | x_j), x_j = floor(2^k * input j),
    are LLL-reduced, and the answer is the first reduced row whose
    leading n entries pass all three tests, each checked exactly (the
    residual on the inputs as rationals).

    None is a proof when it can be. Take an integer u with |u| <= B and
    sum(u_j * y_j) = 0 for reals y_j with |x_j - 2^k * y_j| < 2, as for
    y_j within 2^-k of the inputs. Then |sum(u_j * x_j)| < 2*sum(|u_j|)
    and (u | sum(u_j * x_j)) is a lattice vector of squared norm below
    R^2 = B^2*(1 + 4n). Every lattice vector that short lies in the span
    of the reduced rows up to the last one with |b*|^2 <= R^2. When all
    of those have u[0] = 0, no such relation involves the first value.
    Otherwise the reduced basis cannot decide, and a warning says so.
    """
    vals = list(values)
    n = len(vals)
    if n < 2:
        raise ValueError("need at least two values")
    if max_coeff_bits < 1:
        raise ValueError("max_coeff_bits must be positive")
    prec = min(v.bit_precision for v in vals)
    k = n * max_coeff_bits + 64
    if prec < k:
        raise ValueError(
            f"{n} values at {max_coeff_bits} coefficient bits "
            f"need {k} shared bits, have {prec}")
    rows, d = lll_reduce([[int(i == j) for j in range(n)]
                          + [v.mantissa >> (v.bit_precision - k)]
                          for i, v in enumerate(vals)])
    exact = [v.to_fraction() for v in vals]
    bound = Fraction(1, 1 << (prec // 2))
    norm2 = n << (2 * max_coeff_bits)
    for row in rows:
        u = row[:n]
        if u[0] != 0 and sum(c * c for c in u) < norm2 \
                and abs(sum(c * x for c, x in zip(u, exact))) < bound:
            return u if u[0] > 0 else [-c for c in u]
    r2 = norm2 * (1 + 4 * n)
    short = max((i + 1 for i in range(n) if d[i + 1] <= r2 * d[i]), default=0)
    if any(row[0] != 0 for row in rows[:short]):
        held = _held_undecided.get()
        if held is None:
            log.warning(UNDECIDED, norm_bound_text(n, max_coeff_bits))
        else:
            held.append(n)
    return None


# ----------------------------------------------------------------------
#  The search proper
# ----------------------------------------------------------------------

def _require_complete(motive: Motive) -> None:
    """Every denominator occurring on a side must bring all of its
    reduced fractions with one shared multiplicity."""
    for side, params in (("numerator", motive.num_params),
                         ("denominator", motive.den_params)):
        counts = {}
        for f in params:
            counts[f] = counts.get(f, 0) + 1
        seen_dens = {f.denominator for f in params}
        for q in seen_dens:
            totatives = [Fraction(j, q) for j in range(1, q + 1)
                         if gcd(j, q) == 1]
            mults = {counts.get(f, 0) for f in totatives}
            if len(mults) != 1:
                raise ValueError(
                    f"motive {side} parameters are not complete at "
                    f"denominator {q}")


def _admissible_points(strategy: LatticeStrategy, d: int):
    """(rho, cost) for each lattice point passing the filters."""
    spans = [range(lo, hi + 1) for lo, hi in strategy.exponent_bounds]
    for exps in itertools.product(*spans):
        rho = math.prod((Fraction(p) ** e for p, e in zip(strategy.primes, exps)),
                        start=Fraction(1))
        if rho >= RHO_BOUND:
            continue
        cost = 4 * d / (math.log(rho.denominator) - math.log(rho.numerator))
        if strategy.cost_bound > 0 and cost > strategy.cost_bound:
            continue
        yield rho, cost


def _detection_values(target: FixedReal, exact, bits: int):
    """lindep's input: the target, then the sums s_h..s_0, each cut to `bits`."""
    return [FixedReal.from_rational(x, bits)
            for x in [target.to_fraction()] + exact[::-1]]


def _tail_bits(h: int, bits: int) -> Tuple[int, int]:
    """(detect, confirm): s_0..s_h enter lindep within 2^-detect of the
    series, _confirm within 2^-confirm. For n = h + 2 values, C = COEFF_BITS
    and lindep's k = n*C + 64: within 2^-(k+32), cut to bits >= k, x_j is
    within 1.5 + 2^-32 of 2^k times the series, so lindep's None covers
    the series. A u it accepts has sum |u_j| < n*2^C, so on a relation
    among the series the inputs' errors add under n*2^-7 times each test's
    bound: 2^-(bits//2) in lindep, 2^-(bits+32) in _confirm (n < 128)."""
    return (max((h + 2) * COEFF_BITS + 96, bits // 2 + COEFF_BITS + 8),
            bits + 32 + COEFF_BITS + 8)


def _detect(motive, target, h, bits, points):
    """(u, undecided, sums) for each (rho, cost) of `points`: lindep's
    vector or None, whether its "undecided" warning is due, and with a
    vector s_0..s_h summed again to the confirmation grade (_tail_bits), as
    (numerator, denominator) pairs. It logs nothing and returns only ints,
    so a forked child may run it."""
    detect, confirm = _tail_bits(h, bits)
    verdicts = []
    for rho, _ in points:
        point = Motive(motive.num_params, motive.den_params, rho)
        sums = [_sum_si(point, i, detect) for i in range(h + 1)]
        held = []
        token = _held_undecided.set(held)
        try:
            u = lindep(_detection_values(target, sums, bits), COEFF_BITS)
        finally:
            _held_undecided.reset(token)
        sums = None if u is None else [
            _sum_si(point, i, confirm).as_integer_ratio() for i in range(h + 1)]
        verdicts.append((u, bool(held), sums))
    return verdicts


def _verdicts(motive, target, h, bits, points):
    """_detect over every point, in point order. From FORK_POINTS points
    on, a child takes rho_j with sign (-1)^j and this process the rest
    (binsplit.run_beside): alternating the sign balances the two shares."""
    if len(points) < FORK_POINTS:
        return _detect(motive, target, h, bits, points)
    # points run rho_0, -rho_0, rho_1, -rho_1, ...
    child = [i % 4 in (0, 3) for i in range(len(points))]
    here, there = binsplit.run_beside(
        lambda: _detect(motive, target, h, bits,
                        [p for p, c in zip(points, child) if not c]),
        lambda: _detect(motive, target, h, bits,
                        [p for p, c in zip(points, child) if c]),
        f"examining {sum(child)} lattice points", "its verdicts")
    here, there = iter(here), iter(there)
    return [next(there if c else here) for c in child]


def _confirm(motive, target, h, rho, bits, cost, u, sums):
    """The candidate for lindep's vector u at rho with the sums _detect
    sent, or None if u leaves out the sums or fails a check."""
    if u[1] == 0:
        return None
    if u[1] < 0:
        u = [-x for x in u]
    exact = [Fraction(n, d) for n, d in sums]
    # Re-test the sums, within 2^-confirm of the series, against a finer
    # slice of the target. Lattice noise that matched detection dies here.
    fine = FixedReal.from_rational(target.to_fraction(), 2 * bits)
    resid = sum(c * x for c, x in zip(u, [fine.to_fraction()] + exact[::-1]))
    if abs(resid) >= Fraction(1, 1 << (bits + 32)):
        log.debug("rho=%s: rejected at the confirmation precision", rho)
        return None
    beta = -u[0]
    alphas = tuple(u[1 + h - i] for i in range(h + 1))
    spec = SeriesSpec(
        motive=Motive(motive.num_params, motive.den_params, rho),
        numerator_poly=IntPoly(alphas),
        denominator_scale=Fraction(1),
        normalizer=Fraction(1, beta),
        start_index=1,
        label=f"relation[rho={rho}]",
    )
    digits = binsplit.evaluate(spec, 50).decimal_digits
    if abs(Fraction(digits) - target.to_fraction()) > Fraction(1, 10 ** 49):
        log.warning("rho=%s: relation failed the 50 digit verification", rho)
        return None
    det_resid = sum(c * v.to_fraction()
                    for c, v in zip(u, _detection_values(target, exact, bits)))
    return RelationCandidate(
        coefficients=(beta,) + alphas,
        rho=rho,
        cost=cost,
        residual=FixedReal.from_rational(det_resid, bits),
        series=spec,
    )


def working_precision(h: int, working_digits: int) -> Tuple[int, int, int]:
    """(digits, bits, target_bits) of a search that detects with h + 1 sums.

    digits is working_digits raised to the 20*(h+2) floor (0 asks for
    the floor), with a warning when a requested value is raised; bits is
    the detection precision, at least the k bits lindep needs, and the
    target must carry target_bits for the confirmation.
    """
    floor_digits = 20 * (h + 2)
    digits = working_digits or floor_digits
    if digits < floor_digits:
        log.warning("working digits %d below the 20*(h+2) floor; using %d",
                    digits, floor_digits)
        digits = floor_digits
    bits = max(int(digits * LOG2_10) + 32, (h + 2) * COEFF_BITS + 64)
    return digits, bits, 2 * bits + 16


def search(motive: Motive, target: FixedReal, target_weight: int,
           strategy: LatticeStrategy) -> List[RelationCandidate]:
    """All verified integer relations the strategy's lattice reaches.

    The motive supplies the parameter lists only; its own rate is
    ignored and every admissible lattice point is tried in both signs.
    h = d - target_weight fixes how many sums enter the detection, and
    the working precision never drops below 20*(h+2) decimal digits,
    and a target with fewer bits than confirmation then needs raises
    ValueError, as does a box where no lattice rate passes the filters:
    an empty result then would claim an absence that was never searched
    for. So does a target of exactly 0, which every point reaches with
    the trivial relation. Candidates are returned sorted by series cost.

    From FORK_POINTS points on, a forked child detects rho_j with sign
    (-1)^j when binsplit.run_beside can fork. Every warning is logged and
    every detection confirmed here, in point order, so the candidates,
    the warnings and their order are the same either way.
    """
    _require_complete(motive)
    d = motive.d
    h = d - int(target_weight)
    if h < 0:
        raise ValueError("target weight exceeds the motive depth")
    _, bits, target_bits = working_precision(h, strategy.working_digits)
    if target.bit_precision < target_bits:
        raise ValueError(f"target carries {target.bit_precision} bits but "
                         f"confirmation needs {target_bits}")
    if target.mantissa == 0:
        raise ValueError("the target is 0, so every lattice point has "
                         "the trivial relation (1, 0, ..., 0)")
    points = [(sign * rho, cost) for rho, cost in _admissible_points(strategy, d)
              for sign in (1, -1)]
    if not points:
        cost_text = (f" and cost at most {strategy.cost_bound}"
                     if strategy.cost_bound > 0 else "")
        raise ValueError(f"no lattice rate passed the filters "
                         f"(rate below {RHO_BOUND}{cost_text})")
    found = []
    for (rho, cost), (u, undecided, sums) in zip(
            points, _verdicts(motive, target, h, bits, points)):
        if undecided:
            log.warning(UNDECIDED, norm_bound_text(h + 2, COEFF_BITS))
        if u is not None:
            candidate = _confirm(motive, target, h, rho, bits, cost, u, sums)
            if candidate is not None:
                found.append(candidate)
    found.sort(key=lambda c: c.cost)
    return found


# ----------------------------------------------------------------------
#  Report blocks
# ----------------------------------------------------------------------

def _params_text(motive: Motive) -> str:
    num = ", ".join(str(x) for x in motive.num_params)
    den = ", ".join(str(x) for x in motive.den_params)
    return f"[[{num}], [{den}]]"


def format_report(candidates: Sequence[RelationCandidate],
                  args_text: str = "", const_text: str = "") -> str:
    """One text block per find: arguments, target, motive, the detected
    vector (target coefficient first, then alphas high to low), the
    rate as an exact fraction, and the series cost."""
    blocks = []
    for cand in candidates:
        vector = [-cand.coefficients[0]] + list(cand.coefficients[:0:-1])
        blocks.append("\n".join([
            "*********************",
            f" args  = {args_text}",
            f" const = {const_text}",
            f" hgm_1 = {_params_text(cand.series.motive)}",
            " LINEAR DEPENDENCE FOUND",
            f" {vector}",
            f" rho_1 = {cand.rho}",
            f" BSC   = {cand.cost:.8g}",
            "*********************",
        ]))
    return "\n".join(blocks) + ("\n" if blocks else "")
