"""The benchmark's three workloads: which CLI jobs run and how each
job's output is checked.

A job is one `logseries` command line, run in-process through
`logseries.cli.run`. Its checker gets the captured standard output and,
when the job names an oracle value, `machin.log_decimal(x, digits)` as
computed by the harness outside the timed workload process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Tuple

import checks

COMPUTE_DIGITS = 100_000
COMPUTE_SERIES = "log2-eq8"
COMPUTE_VERIFY = "log2-eq9"

SEARCH_DIGITS = 200
# (p, primes, exponent ranges, rho, (beta, alpha_0, alpha_1)) per search
SEARCH_BOXES = (
    (2, "2,3", "-8:0,-8:0", Fraction(1, 3888), (2, -297, 1794)),
    (3, "3", "-8:0", Fraction(1, 243), (1, -14, 88)),
)

PROVE_TARGETS = (2, 3, 5, 7, 10)
ALTERNATING_HITS = (5, 10, 21, 56)
# the eight certificates of the current registry: log 2, log 3 and the
# two conjugate pairs for log 5, each at lattice shifts (2,1) and (1,2)
WZ_CERTIFICATES = 8
FAMILY_DIGITS = 60
# every convergent integer member of each family, as in acceptance
# criterion 10, plus the interior rational point of the degree-6 family
FAMILY_MEMBERS = (
    [("level1", Fraction(p)) for p in range(2, 14)]
    + [("level2", Fraction(p)) for p in range(2, 22)]
    + [("d4", Fraction(p)) for p in range(2, 29)]
    + [("d6", Fraction(p)) for p in range(2, 18)]
    + [("d6", Fraction(5, 2))]
)


@dataclass(frozen=True)
class Job:
    argv: Tuple[str, ...]
    # check(stdout_text, oracle_text) -> None when right, else a reason
    check: Callable[[str, Optional[str]], Optional[str]]
    oracle: Optional[Tuple[Fraction, int]] = None

    @property
    def subcommand(self):
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: str           # what the seed varies, or "" when nothing
    build: Callable[[int], Tuple[list, dict]]


def _digits_check(digits, verified_digits, text, oracle):
    point = oracle.index(".")
    return checks.check_digits(text, oracle[:point + 1 + digits], verified_digits)


def _relations_check(expected, text, _oracle):
    return checks.check_relations(text, expected)


def _wz_check(text, _oracle):
    return checks.check_wz_verdicts(text, WZ_CERTIFICATES)


def _pass_check(text, _oracle):
    return checks.check_pass_verdict(text)


def _alternating_check(text, _oracle):
    return checks.check_alternating_hits(text, ALTERNATING_HITS)


def compute_digits(seed):
    """The compute-1e5 digit count: 10^5 within +-1 %, fixed by the seed."""
    return random.Random(seed).randint(COMPUTE_DIGITS * 99 // 100,
                                       COMPUTE_DIGITS * 101 // 100)


def _compute_jobs(seed):
    digits = compute_digits(seed)
    job = Job(
        argv=("compute", "--p", "2", "--digits", str(digits),
              "--series", COMPUTE_SERIES, "--verify", COMPUTE_VERIFY),
        check=partial(_digits_check, digits, digits),
        # one oracle value covers every seed: the floor at more digits,
        # cut to fewer, is the floor at fewer
        oracle=(Fraction(2), COMPUTE_DIGITS * 101 // 100),
    )
    probe = {"series": COMPUTE_SERIES, "digits": digits}
    return [job], probe


def _search_jobs(seed):
    jobs = []
    for p, primes, exponents, rho, coeffs in SEARCH_BOXES:
        jobs.append(Job(
            argv=("search", "--p", str(p), "--primes", primes,
                  f"--exponents={exponents}", "--digits", str(SEARCH_DIGITS)),
            check=partial(_relations_check, [(rho, coeffs)]),
        ))
    return jobs, {}


def _verify_jobs(seed):
    jobs = [Job(argv=("wz-verify", "--grid", "20", "--digits", "45"),
                check=_wz_check)]
    for p in PROVE_TARGETS:
        for method in ("integral", "closed"):
            jobs.append(Job(argv=("prove", "--p", str(p), "--method", method),
                            check=_pass_check))
    jobs.append(Job(argv=("alternating", "--scan", "2", "133"),
                    check=_alternating_check))
    for method, p in FAMILY_MEMBERS:
        jobs.append(Job(argv=("family", "--method", method, "--p", str(p),
                              "--digits", str(FAMILY_DIGITS)),
                        check=partial(_digits_check, FAMILY_DIGITS, None),
                        oracle=(p, FAMILY_DIGITS)))
    random.Random(seed).shuffle(jobs)
    return jobs, {}


WORKLOADS = {
    w.name: w for w in (
        Workload("compute-1e5",
                 "10^5 digits of log 2 with cross-verification: the "
                 "big-integer regime of binsplit",
                 "digit count, 10^5 within +-1 %", _compute_jobs),
        Workload("search-box",
                 "both criterion-08 relation searches at 200 digits: "
                 "isolates relsearch, binsplit barely runs",
                 "", _search_jobs),
        Workload("verify-suite",
                 "proof layers plus 76 small-digit family evaluations: "
                 "binsplit with tall coefficients and rates near 1",
                 "order of the jobs", _verify_jobs),
    )
}
