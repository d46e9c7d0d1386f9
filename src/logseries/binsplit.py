"""Binary splitting evaluation of a SeriesSpec to decimal digits.

The series is compiled once into integer-only per-term factors: motive
parameter denominators, rho's fraction and the numerator polynomial's
coefficient denominators are cleared up front. The constants x_const
and y_const that clearing puts into every factor of P and of Q are
divided by their gcd, since only their ratio enters the sum. Every
series divides term n by its stored constant lambda times the linear
factors of x(n) (start 1) or of y(n+1) (start 0), the cleared numerator
and denominator of the motive's term ratio (see seriesdef). That
division cancels the last factor of the P or Q product, and the
reduced constant moves into one compiled rational `scale`. A term range
then folds into a 3-integer node (P, Q, T) whose merge costs four
products, and the partial sum over the range is scale * T/Q (Haible &
Papanikolaou's P, Q, T recurrence). A leaf of up to LEAF_TERMS terms is
folded term by term in one loop over ints. A merge of int nodes over
at most INT_LEAF_TERMS terms first removes the common factor g of the
left P and the right Q, which share most of their small primes since
P is factorial-like: P = (Pl/g)*Pr, Q = Ql*(Qr/g) and
T = Tl*(Qr/g) + (Pl/g)*Tr keep P/Q and T/Q and shorten every product
above. Larger merges keep the plain products, because gcd's time grows
with the square of the length. `evaluate` builds subtrees of up to
INT_LEAF_TERMS terms in int and does every merge above them, and the
floor of |n*T|*10^k / |d*Q| with n/d the scale, as exact integer
arithmetic in libmpdec (`decimal`), whose number-theoretic-transform
multiply and Newton division outrun int's at these sizes; an exact
division there costs several multiplies, so that tree removes nothing.
No step rounds: the decimal context traps any inexact result.

At low precision that exact root is many times longer than the answer:
d4(28) at 60 digits sums 5,094 terms into a 317,882-bit Q for about 230
bits of digits. There `evaluate` encloses the sum instead. It cuts the
range into blocks, each an exact int node from _range_node, folds them
in order in fixed point at W bits with exact integer error radii
(_enclose), and reads the floor from both ends of the enclosure,
doubling W until they agree (_enclosed_floor). The size rule that picks
this path, from the term count, the last term's size and W, is in
_fixed_widths. Either way the floor is the same integer, so every
printed digit is too.

`cross_verify` returns (result, agreed): evaluate(spec_a) and how many
of its leading digits spec_b confirms. The two evaluations share
nothing, so spec_b runs beside spec_a through `run_beside`, the one
place in the package that forks: with 2 or more usable CPUs and one
thread running, a forked child computes one part of a job and sends
back only its value through a pipe while the caller computes the other;
with one CPU, no os.fork or other threads running, both run
in-process. `relsearch.search` splits its lattice points the same way.
The output and every error are byte-identical either way.
"""

from __future__ import annotations

import decimal
import marshal
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .seriesdef import SeriesSpec, estimate_terms

# Terms folded in one flat loop before the tree starts merging nodes.
# At 10^5 digits (log2-eq8, log2-eq9, log10-tableI) 16 built the int
# subtrees fastest; 8 took 4 to 11 % longer and 32 about the same.
LEAF_TERMS = 16
# Terms per subtree built in int, with common factors removed, under
# evaluate's decimal upper tree. Larger subtrees remove more, but gcd
# time grows with the square of the operands. Interleaved medians (2
# vCPUs, CPython 3.11) at 512, 1024, 2048 and 4096 terms: `compute
# --digits 100000 --series log2-eq8 --verify log2-eq9` took
# 0.75/0.67/0.70/0.78 s; the 76 family members at 60 digits
# 0.76/0.76/0.80/0.86 s; log2-eq8, log2-eq9 and log10-tableI at 10^6
# digits 28.4/25.8/24.7/23.9 s together.
INT_LEAF_TERMS = 1024
# evaluate encloses the sum in fixed point at W bits when the exact root
# would be over FIXED_RATIO times longer than W and W is at most
# FIXED_MAX_BITS (see _fixed_widths). Best of 3 runs (2 vCPUs, CPython
# 3.11), exact against fixed, with that length over W in brackets, at
# 10^4 digits: log2-eq8 0.017/0.020 s (3.0), log5-eq8b 0.023/0.025 s
# (3.7), log3-eq8a 0.031/0.027 s (4.4), log10-tableI 0.041/0.034 s
# (5.7), log7-tableI 0.099/0.069 s (13.6). At 19,000 digits (W near
# 2^16) log10-tableI ties (0.095/0.097 s) and log7-tableI still wins
# (0.26/0.22 s); at 30,000 digits both lose (0.13/0.21 s, 0.47/0.50 s),
# as int's quadratic division falls behind libmpdec.
FIXED_RATIO = 4
FIXED_MAX_BITS = 1 << 16
# Bits the first W keeps beyond those the requested digits and the
# scale take; W doubles while an enclosure cannot decide the floor.
FIXED_MARGIN_BITS = 64
# Decimal(int) takes time quadratic in the length of the int; above this
# many bits _to_decimal halves it at a power of two instead.
CONVERT_BITS = 2048

# Integer arithmetic in libmpdec as exact as int's: precision and
# exponent range as large as the platform allows, and every rounding
# trapped, so an inexact step raises instead of printing a wrong digit.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow])


class VerificationError(Exception):
    """Two series that must agree do not."""


@dataclass(frozen=True)
class SplitNode:
    """Exact accumulator for a contiguous term range [lo, hi).

    The fields are ints, or integer-valued Decimals in the upper tree
    that evaluate builds. With s = 1 - start_index:

    P: product of cleared motive-ratio numerators x(k + s)
    Q: product of cleared motive-ratio denominators y(k + s)
    T: weighted sum such that sum over the range = scale * T / Q

    Int merges over at most INT_LEAF_TERMS terms divide the common
    factors of P and Q out, so P and Q are these products less the
    removed factors, and the triple depends on the shape of the tree.
    Only P/Q and T/Q are fixed by the range.
    """

    P: int
    Q: int
    T: int

    def merge(self, right: "SplitNode") -> "SplitNode":
        return SplitNode(self.P * right.P, self.Q * right.Q,
                         self.T * right.Q + self.P * right.T)

    def value(self) -> Fraction:
        return Fraction(self.T, self.Q)

    @property
    def B(self) -> int:
        # Only the benchmark's split-tree probe reads this, from the time
        # nodes carried a denominator product; ROADMAP item 6 deletes it.
        return 1


@dataclass(frozen=True)
class DigitsResult:
    decimal_digits: str
    series_label: str
    requested_digits: int


# ----------------------------------------------------------------------
#  Spec compilation: clear every denominator once
# ----------------------------------------------------------------------

class _Compiled:
    __slots__ = ("num_coeffs", "scale", "x_const", "y_const", "top", "bot",
                 "shift", "coeff_digits")

    def __init__(self, spec: SeriesSpec):
        l_num = math.lcm(*(c.denominator
                           for c in spec.numerator_poly.coefficients))
        self.num_coeffs = tuple(int(c * l_num)
                                for c in spec.numerator_poly.coefficients)

        rho = spec.motive.rho
        self.top = tuple((r.denominator, r.numerator - r.denominator)
                         for r in spec.motive.num_params)
        self.bot = tuple((q.denominator, q.numerator - q.denominator)
                         for q in spec.motive.den_params)
        x_const = rho.numerator * math.prod(
            q.denominator for q in spec.motive.den_params)
        y_const = rho.denominator * math.prod(
            r.denominator for r in spec.motive.num_params)
        # only the ratio x/y enters the sum, so a common factor of the
        # two constants would only lengthen every P and Q product
        g = math.gcd(x_const, y_const)
        self.x_const, self.y_const = x_const // g, y_const // g
        self.shift = 1 - spec.start_index
        # r(n) is lambda * x(n)/x_const (start 1) or lambda * y(n+1)/y_const
        # (start 0), with the reduced constants: its division cancels the
        # last factor of P or Q, and scale folds the reduced constant
        folded = self.x_const if spec.start_index == 1 else self.y_const
        self.scale = (spec.normalizer * folded
                      / (spec.denominator_scale * l_num))

        # decimal headroom the numerator polynomial and normalizer can add
        # on top of the plain |rho|^n tail estimate
        mag = max(1, max(abs(c) for c in self.num_coeffs))
        mag *= max(1, abs((spec.normalizer / l_num).numerator))
        self.coeff_digits = len(str(mag))


@lru_cache(maxsize=64)
def _compiled(spec: SeriesSpec) -> _Compiled:
    return _Compiled(spec)


# ----------------------------------------------------------------------
#  Range evaluation
# ----------------------------------------------------------------------

def _leaf(comp: _Compiled, lo: int, hi: int) -> SplitNode:
    """Node for [lo, hi) folded term by term in one loop over ints."""
    xc, yc, top, bot = comp.x_const, comp.y_const, comp.top, comp.bot
    coeffs = comp.num_coeffs[::-1]
    p, q, t = 1, 1, 0
    for n in range(lo, hi):
        k = n + comp.shift
        x, y = xc, yc
        for b, shift in top:
            x *= b * k + shift
        for b, shift in bot:
            y *= b * k + shift
        a = 0
        for c in coeffs:
            a = a * n + c
        t = t * y + p * a
        p *= x
        q *= y
    return SplitNode(p, q, t)


def _range_node(comp: _Compiled, lo: int, hi: int) -> SplitNode:
    if hi - lo <= LEAF_TERMS:
        return _leaf(comp, lo, hi)
    mid = (lo + hi) // 2
    left, right = _range_node(comp, lo, mid), _range_node(comp, mid, hi)
    if hi - lo > INT_LEAF_TERMS:
        return left.merge(right)
    g = math.gcd(left.P, right.Q)
    pl, qr = left.P // g, right.Q // g
    return SplitNode(pl * right.P, left.Q * qr, left.T * qr + pl * right.T)


@lru_cache(maxsize=64)
def _pow2(k: int) -> decimal.Decimal:
    return decimal.Decimal(2) ** k


def _to_decimal(v: int) -> decimal.Decimal:
    """Exact Decimal of an int, split in halves at a power of two so the
    cost follows libmpdec's multiply. Runs in the current decimal
    context, which must be _EXACT."""
    bits = v.bit_length()
    if bits <= CONVERT_BITS:
        return decimal.Decimal(v)
    k = CONVERT_BITS
    while 2 * k < bits:
        k *= 2
    return _to_decimal(v >> k) * _pow2(k) + _to_decimal(v & ((1 << k) - 1))


def _decimal_node(comp: _Compiled, lo: int, hi: int,
                  keep_p: bool = True) -> SplitNode:
    """Node for [lo, hi) whose P, Q, T are integer-valued Decimals.

    Leaves come from _range_node in int; every merge above them runs in
    the current decimal context, which must be _EXACT. With keep_p
    false, P is left None and never computed: a merge uses only its
    left child's P, so the root and the right spine below it need none.
    """
    if hi - lo <= INT_LEAF_TERMS:
        leaf = _range_node(comp, lo, hi)
        return SplitNode(_to_decimal(leaf.P) if keep_p else None,
                         _to_decimal(leaf.Q), _to_decimal(leaf.T))
    mid = (lo + hi) // 2
    left = _decimal_node(comp, lo, mid)
    right = _decimal_node(comp, mid, hi, keep_p)
    if keep_p:
        return left.merge(right)
    return SplitNode(None, left.Q * right.Q, left.T * right.Q + left.P * right.T)


def _fixed_widths(comp: _Compiled, lo: int, hi: int, places: int):
    """Working precisions W for enclosing [lo, hi), each with a block length.

    Yields (W, step) in order. The first W covers 10^places, the scale's
    n and d, and FIXED_MARGIN_BITS; each next one doubles it. The size
    rule stops the sequence: W stays at most FIXED_MAX_BITS, and the term
    count times the bits of the last term's Q factor, which bounds the
    exact root's Q from above (before common factors go), must exceed
    FIXED_RATIO * W. A block of `step` terms has a Q of about 2W bits:
    in a profile of the 76 family members at 60 digits, blocks of W, 2W
    and 4W bits took 0.20/0.17/0.17 s, 0.13 s of it the leaves' per-term
    work.
    """
    n, d = comp.scale.numerator, comp.scale.denominator
    width = (math.ceil(places * math.log2(10)) + n.bit_length()
             + d.bit_length() + FIXED_MARGIN_BITS)
    k = hi - 1 + comp.shift
    q_bits = math.prod((b * k + s for b, s in comp.bot),
                       start=comp.y_const).bit_length()
    while width <= FIXED_MAX_BITS and (hi - lo) * q_bits > FIXED_RATIO * width:
        yield width, max(1, 2 * width // q_bits)
        width *= 2


def _enclose(comp: _Compiled, lo: int, hi: int, width: int,
             step: int) -> tuple[int, int]:
    """(S, eS) with |S - 2^width * T/Q| <= eS, (P, Q, T) the node of [lo, hi).

    The blocks of `step` terms come exact from _range_node and fold in
    order, since T/Q is the sum of each block's t/q times the p/q of
    every block before it. R stands for 2^width times that product, with
    |R - 2^width * product| <= eR, from R = 2^width and eR = 0. A block
    (p, q, t) adds floor(R*t/q) to S and ceil(eR*|t|/q) + 1 to eS, then
    sets R = floor(R*p/q) and eR = ceil(eR*|p|/q) + 1: each floor drops
    less than 1, and R's error scales by the block's ratio. Every factor
    of Q is positive, so q > 0.
    """
    r, er, s, es = 1 << width, 0, 0, 0
    for a in range(lo, hi, step):
        block = _range_node(comp, a, min(a + step, hi))
        p, q, t = block.P, block.Q, block.T
        s += r * t // q
        es += -(-er * abs(t) // q) + 1
        r = r * p // q
        er = -(-er * abs(p) // q) + 1
    return s, es


def _enclosed_floor(comp: _Compiled, lo: int, hi: int, places: int):
    """(neg, floor(|n*T| * 10^places / (d*Q))) for the node (P, Q, T) of
    [lo, hi) and the scale n/d, from fixed-point enclosures, or None when
    no W the size rule allows decides it.

    scale * T/Q lies in n*[S - eS, S + eS] / (d * 2^W). When both ends
    have one sign and one floor, as machin.log_decimal pins its digits,
    the exact value has them too; otherwise W doubles.
    """
    n, d = comp.scale.numerator, comp.scale.denominator
    for width, step in _fixed_widths(comp, lo, hi, places):
        s, e = _enclose(comp, lo, hi, width, step)
        low, high = sorted((n * (s - e), n * (s + e)))
        if low > 0 or high < 0:
            unit, ten = d << width, 10 ** places
            a, b = sorted(abs(v) * ten // unit for v in (low, high))
            if a == b:
                return high < 0, a
    return None


def split_range(spec: SeriesSpec, lo: int, hi: int) -> SplitNode:
    """Exact node for terms lo..hi-1 of the series."""
    if not spec.start_index <= lo < hi:
        raise ValueError(f"need start_index <= lo < hi, got [{lo}, {hi})")
    return _range_node(_compiled(spec), lo, hi)


def node_sum(spec: SeriesSpec, node: SplitNode) -> Fraction:
    """Exact sum of the terms a split_range node of `spec` covers, as a
    reduced Fraction (the relation search needs it exact).

    The node's T/Q leaves out the normalizer, the folded denominator's
    constant and the cleared coefficient denominators; the compiled
    scale carries them back.
    """
    return _compiled(spec).scale * node.value()


def evaluate(spec: SeriesSpec, digits: int) -> DigitsResult:
    """Decimal expansion of the series limit, truncated to `digits` places.

    The text is the sign, then the exact floor of |value|*10^digits, so
    a negative limit is truncated toward zero, as machin.log_decimal
    prints it, not floored: log(1/2) at 20 places ends in ...941, where
    the floor ends in ...942. Guard digits grow until the trailing
    window pins the truncation down, so a run of 0s or 9s at the
    boundary can never leak a wrong digit. At
    rho = 0 the series is a finite sum, so its value is exact and needs
    no guard test.

    With n/d the scale, (P, Q, T) the node of the first N terms and E
    the digits plus the guard, scaled = floor(|n*T| * 10^E / |d*Q|)
    comes one of two ways. When the size rule (_fixed_widths) picks it,
    from a fixed-point enclosure at W bits whose two ends give one sign
    and one floor (_enclosed_floor), W doubling until they do. Otherwise,
    or once the rule no longer allows a larger W, from one exact libmpdec
    division of the decimal root. Both yield the same integer, so the
    path changes no digit.
    """
    if digits < 1:
        raise ValueError("need at least one digit")
    if abs(spec.motive.rho) >= 1:
        raise ValueError(f"{spec.label}: series diverges")
    comp = _compiled(spec)
    n, d = comp.scale.numerator, comp.scale.denominator
    lo = spec.start_index
    guard = 10
    with decimal.localcontext(_EXACT):
        while True:
            slack = guard + comp.coeff_digits + 10
            hi = lo + estimate_terms(spec, digits + slack)
            found = _enclosed_floor(comp, lo, hi, digits + guard)
            if found is not None:
                # an int of any length; str(int) refuses long ones
                neg, scaled = found[0], _to_decimal(found[1])
            else:
                root = _decimal_node(comp, lo, hi, keep_p=False)
                num, den = n * root.T, d * root.Q
                del root  # the division is the memory peak; drop P, Q, T
                neg = num != 0 and (num < 0) != (den < 0)
                scaled = abs(num).scaleb(digits + guard) // abs(den)
                del num, den
            ten_guard = decimal.Decimal(10) ** guard
            window = scaled % ten_guard
            if spec.motive.rho == 0 or window not in (0, ten_guard - 1):
                break
            guard *= 2
        text = str(scaled // ten_guard)
    ip, frac = text[:-digits] or "0", text[-digits:].rjust(digits, "0")
    text = f"{'-' if neg else ''}{ip}.{frac}"
    return DigitsResult(text, spec.label, digits)


def cross_verify(spec_a: SeriesSpec, spec_b: SeriesSpec,
                 digits: int) -> tuple[DigitsResult, int]:
    """evaluate(spec_a, digits) and the count of its leading digits that
    spec_b's expansion confirms, for two series of the same constant.

    spec_b runs beside spec_a (run_beside): in a forked child when two
    processes can run, otherwise here after spec_a. The digits, the count
    and every error are the same either way. Raises VerificationError
    (naming the first differing position) if they agree to fewer than
    `digits` places.
    """
    ra, text_b = run_beside(
        lambda: evaluate(spec_a, digits),
        lambda: evaluate(spec_b, digits).decimal_digits,
        f"evaluating {spec_b.label}", "its digits")
    text_a = ra.decimal_digits
    # the texts hold digits, '.' and '-'; walk them only on a mismatch
    common = min(len(text_a), len(text_b))
    if text_a[:common] != text_b[:common]:
        pos = next(i for i, (ca, cb) in enumerate(zip(text_a, text_b))
                   if ca != cb)
        raise VerificationError(
            f"{spec_a.label} and {spec_b.label} differ at character "
            f"{pos} after agreeing on {_digit_count(text_a, pos)} digits "
            f"(requested {digits})")
    agree = _digit_count(text_a, common)
    if agree < digits:
        raise VerificationError(
            f"{spec_a.label} and {spec_b.label}: only {agree} comparable "
            f"digits, requested {digits}")
    return ra, agree


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_beside(here, there, doing: str, sends: str):
    """(here(), there()), with there() run in a forked child while this
    process runs here(), when 2 or more CPUs are usable and this process
    runs one thread: a fork copies only the calling thread, so a lock
    another one holds would stay held in the child. Otherwise both run
    here, here() first. The values and every error are the same either
    way.

    there() returns what marshal writes: None, bools, ints, strs and
    lists or tuples of them. The child writes one kind byte and a body
    to a pipe: "=" and the marshalled value, "V" and a ValueError's
    message, or "R" and any other exception's type and message; here
    they come back as the value, a ValueError or a RuntimeError. A child
    that dies before it has written raises RuntimeError: "the process
    {doing} ended with exit status N before sending {sends}". The pipe
    is read to EOF before the child is reaped, since 10^5 digits
    overflow its buffer. If here() fails, the child is killed and
    reaped first.
    """
    if not (hasattr(os, "fork") and _usable_cpus() >= 2
            and threading.active_count() == 1):
        return here(), there()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # never return: the caller's stack (a test runner, a benchmark
        # worker) must not resume in the child
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = b"=" + marshal.dumps(there())
            except ValueError as exc:
                payload = b"V" + str(exc).encode()
            except BaseException as exc:
                payload = b"R" + f"{type(exc).__name__}: {exc}".encode()
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0 if payload[:1] == b"=" else 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            mine = here()
            payload = pipe.read()
        except BaseException:
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    kind, body = payload[:1], payload[1:]
    if kind == b"V":
        raise ValueError(body.decode(errors="replace"))
    if kind == b"R":
        raise RuntimeError(body.decode(errors="replace"))
    if kind != b"=" or code != 0:
        ended = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"the process {doing} ended with {ended} "
                           f"before sending {sends}")
    return mine, marshal.loads(body)


def _digit_count(text: str, end: int) -> int:
    return end - text.count(".", 0, end) - text.count("-", 0, end)


def render_digit_rows(result: DigitsResult, target) -> str:
    """Digit report for log(target): header line, then rows of 100 digits
    in blocks of 10.

    The first row is prefixed with the integer part and decimal point."""
    head, _, frac = result.decimal_digits.partition(".")
    lines = [f"# log({target}) digits={result.requested_digits} "
             f"series={result.series_label}"]
    prefix = head + "."
    for row_start in range(0, len(frac), 100):
        row = frac[row_start:row_start + 100]
        blocks = " ".join(row[i:i + 10] for i in range(0, len(row), 10))
        lines.append((prefix if row_start == 0 else " " * len(prefix)) + blocks)
    return "\n".join(lines)

