"""Command-line front end.

Every subcommand is a thin adapter over the library: parse flags, call
one or two public functions, format their results. Exit status is 0 on
success, 1 when a computation fails or a check does not pass, 2 for
usage errors.
"""

import argparse
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import altseries, betaproof, binsplit, machin, relsearch, seriesdef, wzcert
from .binsplit import VerificationError
from .exactnum import FixedReal


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _prime_list(text):
    try:
        primes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    return primes


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")


def _exponent_ranges(text):
    ranges = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"range {part!r} is not of the form lo:hi")
        try:
            ranges.append((int(lo), int(hi)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"range {part!r} is not a pair of integers")
    return tuple(ranges)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ----------------------------------------------------------------------
#  compute
# ----------------------------------------------------------------------

def _cmd_compute(args):
    if args.series is None and args.p is None:
        raise UsageError("compute needs --p or --series")
    label = args.series
    if label is None:
        label = seriesdef.cheapest_label(args.p)
    spec = seriesdef.catalog_get(label)
    target = seriesdef.CATALOG_TARGETS[label]
    if args.p is not None and target != args.p:
        raise UsageError(f"series {label} does not compute log({args.p})")
    if args.verify:
        other = seriesdef.catalog_get(args.verify)
        if args.verify == label:
            raise UsageError(f"--verify {label} names the series being "
                             f"computed; a check needs a second series")
        if seriesdef.CATALOG_TARGETS[args.verify] != target:
            raise UsageError(f"series {args.verify} does not compute "
                             f"log({target})")

    if args.verify:
        result, agreed = binsplit.cross_verify(spec, other, args.digits)
    else:
        result = binsplit.evaluate(spec, args.digits)
    lines = [binsplit.render_digit_rows(result, target)]
    if args.verify:
        lines.append(f"# verified against {args.verify}: "
                     f"first {agreed} digits agree")
    _emit("\n".join(lines), args.out)
    return 0


# ----------------------------------------------------------------------
#  catalog / cost
# ----------------------------------------------------------------------

def _cmd_catalog(args):
    _emit(seriesdef.catalog_export().rstrip("\n"), args.out)
    return 0


def _cmd_cost(args):
    if args.all == (args.series is not None):
        raise UsageError("cost needs exactly one of --series or --all")
    labels = seriesdef.catalog_labels() if args.all else (args.series,)
    lines = ["# binary splitting cost, M(b) log b units per output bit"]
    for label in labels:
        cost = seriesdef.binary_splitting_cost(seriesdef.catalog_get(label))
        lines.append(f"{label:<16}{float(cost):10.4f}")
    _emit("\n".join(lines), args.out)
    return 0


# ----------------------------------------------------------------------
#  search
# ----------------------------------------------------------------------

def _cmd_search(args):
    motive = seriesdef.catalog_get(args.series).motive
    # the target has weight 1, so the search detects with d sums
    working, _, need = relsearch.working_precision(motive.d - 1,
                                                   args.digits or 0)
    strategy = relsearch.LatticeStrategy(
        primes=args.primes,
        exponent_bounds=args.exponents,
        working_digits=working,
    )
    digits_text = machin.log_decimal(args.p, need // 3 + 8)
    target = FixedReal.from_rational(Fraction(Decimal(digits_text)), need + 32)

    candidates = relsearch.search(motive, target, 1, strategy)
    if candidates:
        ranges = ",".join(f"{lo}:{hi}" for lo, hi in args.exponents)
        args_text = (f"p={args.p} primes={','.join(map(str, args.primes))} "
                     f"exponents={ranges} digits={working}")
        text = relsearch.format_report(candidates, args_text,
                                       f"log({args.p}) = {digits_text[:40]}...")
    else:
        # lindep sees the target and its d sums
        bound = relsearch.norm_bound_text(motive.d + 1, relsearch.COEFF_BITS)
        text = (f"no integer relations found for log({args.p}) "
                f"with coefficient norm <= {bound}\n")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(text)
    print(text.rstrip("\n"))
    return 0


# ----------------------------------------------------------------------
#  wz-verify
# ----------------------------------------------------------------------

def _cmd_wz_verify(args):
    labels = wzcert.certificate_labels(args.p)
    if not labels:
        raise ValueError(f"no certificates for log({args.p})")
    digits = args.digits
    bits = int(digits * relsearch.LOG2_10) + 64
    failed, wants = False, {}
    for label in labels:
        cert = wzcert.certificate_get(label)
        report = wzcert.certificate_telescoping_check(cert, args.grid, args.grid)
        value = wzcert.gst_series_sum(cert, bits)
        p = cert.context.target
        if p not in wants:
            wants[p] = Fraction(Decimal(machin.log_decimal(p, digits + 12)))
        close = abs(value.log_value.to_fraction() - wants[p]) < Fraction(1, 10 ** digits)
        ok = report.passed and close
        failed = failed or not ok
        grid = f"{report.n_max + 1}x{report.k_max + 1}"
        print(f"{label}: telescoping {'exact' if report.passed else 'FAILED'} "
              f"on the {grid} grid ({report.points} points); "
              f"{value.terms}-term sum matches log({p}) to >= {digits} digits: "
              f"{'yes' if close else 'NO'}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
#  prove
# ----------------------------------------------------------------------

def _poly_text(poly):
    """An integer polynomial in t with a positive leading coefficient,
    highest power first: t^2 - 3t + 8."""
    text = ""
    for k in range(poly.degree(), -1, -1):
        c = poly.coefficients[k]
        if c:
            size = "" if abs(c) == 1 and k else str(abs(c))
            power = "t" * (k > 0) + f"^{k}" * (k > 1)
            text += f" {'-' if c < 0 else '+'} {size}{power}"
    return text.removeprefix(" + ")


def _cmd_prove(args):
    params = seriesdef.d2_params(args.p)
    if args.method == "integral":
        pair = betaproof.build_integrand(params)
        terms = betaproof.integral_check(pair, args.p)
        logs = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} log|{_poly_text(h)}|"
                        for c, h in terms)
        print(f"# log({args.p}) as a beta-type integral")
        print(f"u coefficients: {[str(c) for c in pair.u_poly.coefficients]}")
        print(f"v coefficients: {[str(c) for c in pair.v_poly.coefficients]}")
        print(f"antiderivative in t = sqrt(1-x): {logs.removeprefix('+ ')}")
        print(f"integral = 1 * log({args.p}), exactly")
        print("PASS")
        return 0

    e, x = betaproof.log_from_closed_forms(
        args.p, int(args.digits * relsearch.LOG2_10) + 48)
    print(f"# log({args.p}) from closed forms, digits={args.digits}")
    print(f"combination = {e} * log({x}), exactly")
    print("PASS")
    return 0


# ----------------------------------------------------------------------
#  alternating
# ----------------------------------------------------------------------

def _alternating_table(hits):
    lines = ["#  p    m   rho              (a, b, c)"
             "                r               phi"]
    for hit in hits:
        abc = f"({hit.a}, {hit.b}, {hit.c})"
        lines.append(f"{hit.p:>4} {hit.m:>4}   {str(hit.rho):<16} {abc:<24} "
                     f"{hit.r.to_decimal(12):<15} {hit.phi.to_decimal(12)}")
    return "\n".join(lines)


def _cmd_alternating(args):
    lo, hi = args.scan if args.scan is not None else (args.p, args.p)
    if lo > hi:
        raise UsageError("alternating --scan needs LO <= HI")
    if lo < 2 or hi > altseries.SCAN_LIMIT:
        raise UsageError(f"alternating targets must sit inside [2, {altseries.SCAN_LIMIT}]")
    try:
        hits = altseries.scan_range(lo, hi)
    except altseries.UndecidedScan as exc:
        lines = [_alternating_table(exc.hits)]
        lines += [f"undecided p={p}: {reason}" for p, reason in exc.undecided]
        _emit("\n".join(lines), args.out)
        return 1
    if args.scan is not None:
        lines = [_alternating_table(hits)]
        if not hits:
            lines.append("(no alternating series with a rational rate)")
        _emit("\n".join(lines), args.out)
        return 0
    if not hits:
        _emit(f"p={args.p}: the solved rate is not rational; "
              f"no alternating series of this shape exists", args.out)
        return 0
    _emit(_alternating_table(hits), args.out)
    return 0


# ----------------------------------------------------------------------
#  family
# ----------------------------------------------------------------------

_FAMILIES = {
    "level1": seriesdef.level1_series,
    "level2": seriesdef.level2_series,
    "d4": seriesdef.d4_family,
    "d6": seriesdef.d6_family,
}


def _cmd_family(args):
    spec = _FAMILIES[args.method](args.p)
    if args.digits:
        result = binsplit.evaluate(spec, args.digits)
        _emit(binsplit.render_digit_rows(result, args.p), args.out)
        return 0
    cost = seriesdef.binary_splitting_cost(spec)
    lines = [
        f"label:       {spec.label}",
        f"rho:         {spec.motive.rho}",
        f"cost:        {float(cost):.4f}",
        f"numerator:   {[str(c) for c in spec.numerator_poly.coefficients]}",
        f"denominator: {[str(c) for c in spec.denominator_poly.coefficients]}",
        f"normalizer:  {spec.normalizer}",
        f"start:       {spec.start_index}",
    ]
    _emit("\n".join(lines), args.out)
    return 0


# ----------------------------------------------------------------------
#  parser and entry points
# ----------------------------------------------------------------------

class UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="logseries",
        description="log p to arbitrary precision via fast hypergeometric "
                    "series, with discovery and verification tooling")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="evaluate a series by binary splitting")
    p_compute.add_argument("--p", type=int, help="target: compute log(p)")
    p_compute.add_argument("--digits", type=_positive_int, required=True,
                           help="decimal digits after the point")
    p_compute.add_argument("--series", help="catalog series label "
                           "(default: cheapest series for --p)")
    p_compute.add_argument("--verify", metavar="LABEL",
                           help="cross-check against a second catalog series")
    p_compute.add_argument("--out", help="write the digits to a file")
    p_compute.set_defaults(handler=_cmd_compute)

    p_catalog = sub.add_parser("catalog", help="print the series catalog as JSON")
    p_catalog.add_argument("--out")
    p_catalog.set_defaults(handler=_cmd_catalog)

    p_cost = sub.add_parser("cost", help="binary splitting cost per series")
    p_cost.add_argument("--series", help="one catalog label")
    p_cost.add_argument("--all", action="store_true", help="every catalog series")
    p_cost.add_argument("--out")
    p_cost.set_defaults(handler=_cmd_cost)

    p_search = sub.add_parser(
        "search", help="integer-relation search for new series")
    p_search.add_argument("--p", type=_positive_int, required=True,
                          help="search for series computing log(p)")
    p_search.add_argument("--digits", type=_positive_int,
                          help="working precision in decimal digits")
    p_search.add_argument("--primes", type=_prime_list, required=True,
                          metavar="P1,P2,...", help="primes allowed in the rate")
    p_search.add_argument("--exponents", type=_exponent_ranges, required=True,
                          metavar="LO:HI,...",
                          help="exponent range per prime; spell negative "
                               "bounds as --exponents=-8:0,-8:0")
    p_search.add_argument("--series", default="log2-eq8",
                          help="catalog series whose motive drives the search")
    p_search.add_argument("--out", help="append the report to a file")
    p_search.set_defaults(handler=_cmd_search)

    p_wz = sub.add_parser(
        "wz-verify", help="check the telescoping certificates exactly")
    p_wz.add_argument("--p", type=int, help="restrict to one target (2, 3 or 5)")
    p_wz.add_argument("--grid", type=_positive_int, default=20,
                      help="check n, k = 0..GRID")
    p_wz.add_argument("--digits", type=_positive_int, default=45,
                      help="digits for the companion sum check")
    p_wz.set_defaults(handler=_cmd_wz_verify)

    p_prove = sub.add_parser(
        "prove", help="verify a degree-2 table row by integral or closed form")
    p_prove.add_argument("--p", type=_positive_int, required=True,
                         help="one of 2, 3, 5, 7, 10")
    p_prove.add_argument("--digits", type=_positive_int, default=45,
                         help="precision of --method closed's series checks; "
                              "--method integral is exact")
    p_prove.add_argument("--method", choices=("integral", "closed"),
                         default="integral")
    p_prove.set_defaults(handler=_cmd_prove)

    p_alt = sub.add_parser(
        "alternating", help="find the alternating series with rational rates")
    which = p_alt.add_mutually_exclusive_group(required=True)
    which.add_argument("--p", type=_positive_int, help="decide one target")
    which.add_argument("--scan", type=_positive_int, nargs=2,
                       metavar=("LO", "HI"), help="scan a range of targets")
    p_alt.add_argument("--out")
    p_alt.set_defaults(handler=_cmd_alternating)

    p_family = sub.add_parser(
        "family", help="instantiate a parametric series family")
    p_family.add_argument("--method", choices=tuple(_FAMILIES), required=True)
    p_family.add_argument("--p", type=_fraction, required=True,
                          help="target, an integer or a fraction like 5/2")
    p_family.add_argument("--digits", type=_positive_int,
                          help="also evaluate to this many digits")
    p_family.add_argument("--out")
    p_family.set_defaults(handler=_cmd_family)

    return parser


# built once per process: each parse leaves the parser as it found it
_PARSER = _build_parser()


def run(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away: main() owns stdout and silences it
        raise
    except OSError as exc:
        # args[0] is the errno; str(exc) names the reason and the path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, ZeroDivisionError, RuntimeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is gone; point it at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
