"""Output checkers for the benchmark's CLI jobs.

Each checker takes the text a job printed plus what the job must show,
and returns None when the output is right or a one-line reason when it
is not. Checkers parse text only; they never import logseries, so a
broken program cannot break the checking.
"""

from __future__ import annotations

import re
from fractions import Fraction


def digits_from_rows(text):
    """The decimal expansion printed by `compute` or `family --digits`."""
    rows = [line for line in text.splitlines()
            if line.strip() and not line.startswith("#")]
    return "".join(rows).replace(" ", "")


def check_digits(text, reference, verified_digits=None):
    """Printed digits equal `reference` (the oracle's exact floor); with
    `verified_digits`, the cross-check line must report at least that
    many agreeing digits (the count includes the integer part)."""
    got = digits_from_rows(text)
    if got != reference:
        if len(got) != len(reference):
            return f"printed {len(got)} characters, reference has {len(reference)}"
        pos = next(i for i, (a, b) in enumerate(zip(got, reference)) if a != b)
        return f"digits differ from the oracle at character {pos}"
    if verified_digits is not None:
        match = re.search(r"^# verified against \S+: first (\d+) digits agree$",
                          text, re.MULTILINE)
        if match is None:
            return "no cross-verification line"
        if int(match.group(1)) < verified_digits:
            return (f"cross-verification reports {match.group(1)} digits, "
                    f"fewer than {verified_digits}")
    return None


_WZ_LINE = re.compile(r"^(\S+): telescoping (exact|FAILED) on the \d+x\d+ grid "
                      r"\((\d+) points\); \d+-term sum matches log\(\d+\) "
                      r"to >= \d+ digits: (yes|NO)$")


def check_wz_verdicts(text, min_certificates):
    """Every `wz-verify` line says exact telescoping and a matching sum."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < min_certificates:
        return f"{len(lines)} certificate lines, expected at least {min_certificates}"
    for line in lines:
        match = _WZ_LINE.match(line)
        if match is None:
            return f"unparsed line: {line[:80]!r}"
        if match.group(2) != "exact" or match.group(4) != "yes":
            return f"certificate {match.group(1)} failed"
    return None


def check_pass_verdict(text):
    """A `prove` report: its last line is PASS and no line says FAIL."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        return "empty output"
    if "FAIL" in lines:
        return "report says FAIL"
    if lines[-1] != "PASS":
        return f"last line is {lines[-1][:40]!r}, not PASS"
    return None


def parse_relations(text):
    """(rho, (beta, alpha_0, ..., alpha_h)) for each `search` report block.

    The block prints the detected vector target-coefficient first, as
    [-beta, alpha_h, ..., alpha_0]."""
    found = []
    for block in text.split("LINEAR DEPENDENCE FOUND")[1:]:
        vector = re.search(r"\[([-\d, ]+)\]", block)
        rho = re.search(r"rho_1 = (\S+)", block)
        if vector is None or rho is None:
            raise ValueError("report block without a vector or a rate")
        v = [int(x) for x in vector.group(1).split(",")]
        found.append((Fraction(rho.group(1)), (-v[0],) + tuple(reversed(v[1:]))))
    return found


def check_relations(text, expected):
    """Every (rho, coefficients) pair in `expected` is among the reports."""
    try:
        found = parse_relations(text)
    except ValueError as exc:
        return str(exc)
    for rho, coeffs in expected:
        if (Fraction(rho), tuple(coeffs)) not in found:
            return f"no relation {tuple(coeffs)} at rho={rho}"
    return None


def parse_alternating_hits(text):
    """The p column of an `alternating` table."""
    hits = []
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        first = line.split()[0]
        if first.isdigit():
            hits.append(int(first))
    return hits


def check_alternating_hits(text, expected):
    """The scan reports exactly the sporadic targets in `expected`."""
    hits = parse_alternating_hits(text)
    if sorted(hits) != sorted(expected):
        return f"hits {hits}, expected {sorted(expected)}"
    return None
