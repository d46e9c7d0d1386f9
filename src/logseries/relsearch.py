"""Integer-relation discovery over a lattice of prime-power rates.

Fixing the motive parameter lists and walking the rate over products of
small prime powers, each candidate rate yields weighted partial sums
s_0..s_h of the term recurrence. A fixed-point PSLQ pass (mpmath) then
asks whether an integer combination of those sums reproduces the target
constant. Detection alone is not trusted: every hit is checked in exact
rationals, re-tested against a finer slice of the target, rebuilt as a
series, and must reproduce the target to 50 digits through binary
splitting before it is reported.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

import mpmath

from . import binsplit
from .exactnum import FixedReal, IntPoly
from .seriesdef import Motive, SeriesSpec

log = logging.getLogger(__name__)

LOG2_10 = math.log2(10)

# Squared-norm ceiling for accepted relation vectors: dimension << 205.
# Anything larger is lattice noise, not a 64-bit-coefficient relation.
COEFF_NORM_BITS = 205

# PSLQ iteration cap: the catalog searches end within ~300 steps; a call
# that reaches it reports no relation.
PSLQ_MAX_STEPS = 2000

# Lattice rates at or above this cannot converge usefully and are skipped.
RHO_BOUND = Fraction(3, 5)


# ----------------------------------------------------------------------
#  Strategy and result types
# ----------------------------------------------------------------------

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

def _exact_si(motive: Motive, i: int, N: int) -> Fraction:
    """s_i truncated at N, exactly: the binary-splitting sum of the
    start-1 series with numerator n^i and lambda = 1."""
    spec = SeriesSpec(motive, IntPoly([0] * i + [1]), Fraction(1),
                      Fraction(1), 1, f"s_{i}")
    return binsplit.node_sum(spec, binsplit.split_range(spec, 1, N + 1))


def partial_sum_si(motive: Motive, i: int, N: int, bits: int) -> FixedReal:
    """Sum over n=1..N of n^i/r(n) * prod_{k<=n} rho*num(k)/den(k), with
    r(n) = prod (v*n - v + u) over the numerator parameters u/v.

    The sum is exact; only the final value is rounded to `bits`.
    """
    if i < 0:
        raise ValueError("need i >= 0")
    if N < 1:
        raise ValueError("need N >= 1")
    return FixedReal.from_rational(_exact_si(motive, i, N), bits)


# ----------------------------------------------------------------------
#  Relation detection
# ----------------------------------------------------------------------

def lindep(values: Sequence[FixedReal], max_coeff_bits: int) -> Optional[List[int]]:
    """Integer vector v with sum(v_j * values_j) below 2^(-prec/2), or
    None when no vector within the acceptance bounds is detected.

    prec is the shared (minimum) precision of the inputs and must cover
    the coefficients being sought: at least count*max_coeff_bits + 64,
    otherwise the call refuses rather than guess. Detection is mpmath's
    fixed-point PSLQ at prec bits, which needs nonzero inputs: a value
    already below the bound is left out of it (and is itself the answer
    when it is the first one). Acceptance is exact: a nonzero first
    coefficient (the target's), squared norm under count*2^205, and the
    residual bound checked on the inputs as exact rationals.
    """
    vals = list(values)
    if len(vals) < 2:
        raise ValueError("need at least two values")
    if max_coeff_bits < 1:
        raise ValueError("max_coeff_bits must be positive")
    prec = min(v.bit_precision for v in vals)
    need = len(vals) * max_coeff_bits + 64
    if prec < need:
        raise ValueError(
            f"{len(vals)} values at {max_coeff_bits} coefficient bits "
            f"need {need} shared bits, have {prec}")
    n = len(vals)
    exact = [v.to_fraction() for v in vals]
    bound = Fraction(1, 1 << (prec // 2))
    if abs(exact[0]) < bound:
        return [1] + [0] * (n - 1)
    live = [j for j in range(n) if abs(exact[j]) >= bound]
    if len(live) < 2:
        return None
    with mpmath.workprec(prec):
        found = mpmath.pslq(
            [mpmath.mpf((vals[j].mantissa, -vals[j].bit_precision))
             for j in live],
            tol=mpmath.mpf((1, -(prec // 2))),
            maxcoeff=1 << ((COEFF_NORM_BITS + 1) // 2),
            maxsteps=PSLQ_MAX_STEPS)
    if found is None:
        return None
    u = [0] * n
    for j, c in zip(live, found):
        u[j] = c
    if u[0] == 0 or sum(c * c for c in u) >= n << COEFF_NORM_BITS \
            or abs(sum(c * x for c, x in zip(u, exact))) >= bound:
        return None
    return u


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


def _admissible_points(strategy: LatticeStrategy, d: int, wd: int):
    """(rho, cost, n_terms) for each lattice point passing the filters."""
    spans = [range(lo, hi + 1) for lo, hi in strategy.exponent_bounds]
    for exps in itertools.product(*spans):
        rho = Fraction(1)
        for p, e in zip(strategy.primes, exps):
            rho *= Fraction(p) ** e
        if rho >= RHO_BOUND:
            continue
        lr = math.log(rho.denominator) - math.log(rho.numerator)
        cost = 4 * d / lr
        if strategy.cost_bound > 0 and cost > strategy.cost_bound:
            continue
        yield rho, cost, math.ceil(2.5 * wd * math.log(10) / lr)


def _examine_point(motive, target, h, rho, n_terms, bits, cost):
    point = Motive(motive.num_params, motive.den_params, rho)
    exact = [_exact_si(point, i, n_terms) for i in range(h + 1)]
    sums = [FixedReal.from_rational(x, bits) for x in exact]
    tgt = FixedReal.from_rational(target.to_fraction(), bits)
    values = [tgt] + [sums[i] for i in range(h, -1, -1)]
    u = lindep(values, 64)
    if u is None or u[1] == 0:
        return None
    if u[1] < 0:
        u = [-x for x in u]
    # The sums are exact; re-test against a finer slice of the target.
    # Lattice noise that matched the detection precision dies here.
    fine = FixedReal.from_rational(target.to_fraction(), 2 * bits)
    resid = u[0] * fine.to_fraction()
    for j in range(1, len(u)):
        resid += u[j] * exact[h - (j - 1)]
    if abs(resid) >= Fraction(1, 1 << (bits + 32)):
        log.debug("rho=%s: rejected at the confirmation precision", rho)
        return None
    beta = -u[0]
    alphas = tuple(u[1 + h - i] for i in range(h + 1))
    spec = SeriesSpec(
        motive=point,
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
    det_resid = Fraction(0)
    for c, v in zip(u, values):
        det_resid += c * v.to_fraction()
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
    the detection precision, and the target must carry target_bits for
    the confirmation against its finer slice.
    """
    floor_digits = 20 * (h + 2)
    digits = working_digits or floor_digits
    if digits < floor_digits:
        log.warning("working digits %d below the 20*(h+2) floor; using %d",
                    digits, floor_digits)
        digits = floor_digits
    bits = max(int(digits * LOG2_10) + 32, (h + 2) * 64 + 64)
    return digits, bits, 2 * bits + 16


def search(motive: Motive, target: FixedReal, target_weight: int,
           strategy: LatticeStrategy) -> List[RelationCandidate]:
    """All verified integer relations the strategy's lattice reaches.

    The motive supplies the parameter lists only; its own rate is
    ignored and every admissible lattice point is tried in both signs.
    h = d - target_weight fixes how many sums enter the detection, and
    the working precision never drops below 20*(h+2) decimal digits.
    Candidates are returned sorted by series cost. Lattice points are
    independent of each other, so failures at one point only log and
    move on.
    """
    _require_complete(motive)
    d = motive.d
    h = d - int(target_weight)
    if h < 0:
        raise ValueError("target weight exceeds the motive depth")
    wd, bits, target_bits = working_precision(h, strategy.working_digits)
    if target.bit_precision < target_bits:
        log.warning("target carries %d bits but confirmation needs %d; "
                    "skipping the search", target.bit_precision, target_bits)
        return []
    found = []
    for rho, cost, n_terms in _admissible_points(strategy, d, wd):
        for sign in (1, -1):
            candidate = _examine_point(motive, target, h, sign * rho,
                                       n_terms, bits, cost)
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


def write_report(candidates: Sequence[RelationCandidate], path,
                 args_text: str = "", const_text: str = "") -> str:
    """Append the formatted blocks to `path`; returns the text."""
    text = format_report(candidates, args_text, const_text)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
    return text
