import ast
import inspect
from fractions import Fraction

import mpmath
import pytest

from logseries import machin

# First 50 fractional digits of log 2, log 3, log 5, fixed reference data.
LOG2_50 = "0.69314718055994530941723212145817656807550013436025"
LOG3_50 = "1.09861228866810969139524523692252570464749055782274"
LOG5_50 = "1.60943791243410037460075933322618763952560135426851"


def test_log_decimal_reference_values():
    assert machin.log_decimal(2, 50) == LOG2_50
    assert machin.log_decimal(3, 50) == LOG3_50
    assert machin.log_decimal(5, 50) == LOG5_50


def test_interval_encloses():
    lo, hi = machin.log_interval(2, 30)
    ref = int(LOG2_50[2:32])  # digits of log2 * 10^30
    assert lo <= ref <= hi
    assert hi - lo < 10 ** 5  # enclosure is tight relative to the scale


def _as_fraction(decimal_string):
    sign = -1 if decimal_string.startswith("-") else 1
    s = decimal_string.lstrip("-")
    ip, _, frac = s.partition(".")
    return sign * (Fraction(int(ip)) + Fraction(int(frac or 0), 10 ** len(frac)))


def test_log_identities_hold():
    eps = Fraction(1, 10 ** 38)
    log2 = _as_fraction(machin.log_decimal(2, 40))
    log4 = _as_fraction(machin.log_decimal(4, 40))
    log5 = _as_fraction(machin.log_decimal(5, 40))
    log10 = _as_fraction(machin.log_decimal(10, 40))
    assert abs(log4 - 2 * log2) < eps
    assert abs(log10 - log2 - log5) < eps


def test_matches_mpmath_for_assorted_arguments():
    with mpmath.workdps(60):
        for x in (7, 11, 97, 360, Fraction(3, 2), Fraction(22, 7)):
            got = _as_fraction(machin.log_decimal(x, 45))
            want = mpmath.log(mpmath.mpf(x.numerator) / x.denominator
                              if isinstance(x, Fraction) else x)
            assert abs(got - Fraction(mpmath.nstr(want, 50))) < Fraction(1, 10 ** 44)


def test_fraction_and_reciprocal():
    half = machin.log_decimal(Fraction(1, 2), 30)
    assert half == "-" + machin.log_decimal(2, 30)


def test_log_one_and_bad_input():
    assert machin.log_decimal(1, 5) == "0.00000"
    with pytest.raises(ValueError):
        machin.log_decimal(0, 10)
    with pytest.raises(ValueError):
        machin.log_decimal(Fraction(-2, 3), 10)


def test_oracle_imports_nothing_from_the_package():
    # the oracle referees the series code, so it must share none of it
    for node in ast.walk(ast.parse(inspect.getsource(machin))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert name.split(".")[0] != "logseries", ast.unparse(node)
