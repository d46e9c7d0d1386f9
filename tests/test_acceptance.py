"""Acceptance gate: one test per release criterion.

Each test states its tolerance inline and fails loudly with the first
offending case. The slow pieces (10,000-digit evaluations, the full
relation-search box) run here and nowhere else, so this file doubles as
the performance budget: criterion 1 allows 30 seconds per series and
criterion 8 two minutes for both searches.
"""

import time
from fractions import Fraction

import mpmath
import pytest

from logseries import altseries
from logseries import betaproof as bp
from logseries import binsplit
from logseries import machin
from logseries import relsearch
from logseries import seriesdef as sd
from logseries import wzcert
from logseries.exactnum import FixedReal, IntPoly


def test_criterion_01_ten_thousand_digits():
    """Three independent series against the arctanh oracle, digit for
    digit at 10,000 fractional digits, under 30 seconds each."""
    for label, p in (("log2-eq8", 2), ("log3-eq8a", 3), ("log5-eq8b", 5)):
        started = time.perf_counter()
        result = binsplit.evaluate(sd.catalog_get(label), 10000)
        elapsed = time.perf_counter() - started
        assert result.decimal_digits == machin.log_decimal(p, 10000), label
        assert elapsed < 30, (label, elapsed)


def test_criterion_02_cost_regression():
    """Binary splitting cost of every catalog workhorse within 1e-4 of
    its reference value."""
    expected = {
        "log2-eq8": "0.9679", "log3-eq8a": "1.4564", "log5-eq8b": "1.2280",
        "log2-eq9": "1.1335", "log2-eq11": "1.2292", "log2-eq13": "1.3001",
        "log3-eq15a": "1.6459", "log2-eq18": "1.2189",
    }
    for label, text in expected.items():
        cost = sd.binary_splitting_cost(sd.catalog_get(label))
        assert abs(cost.to_fraction() - Fraction(text)) < Fraction(1, 10 ** 4), label


def test_criterion_03_cross_validation():
    """Pairs of structurally different series agree to 5,000 digits,
    including the conjectured degree-4 row (numeric-only evidence)."""
    pairs = [("log2-eq8", "log2-eq9"), ("log2-eq8", "log2-eq13"),
             ("log2-eq8", "log2-eq18"), ("log3-eq8a", "log3-eq15a")]
    for one, other in pairs:
        _, agreed = binsplit.cross_verify(sd.catalog_get(one),
                                          sd.catalog_get(other), 5000)
        assert agreed >= 5000, (one, other, agreed)


def test_criterion_04_degree2_table_and_conversions():
    """level1_series reproduces the degree-2 table rows for p = 2, 3, 7;
    the (alpha, beta, gamma) <-> (a, b, c) conversion round-trips all
    five rows; a1a2a3 matches the printed A-columns exactly."""
    table = {
        2: (1794, -297, 2, 598, 499, 144, Fraction(1, 3888)),
        3: (88, -14, 1, 176, 148, 27, Fraction(1, 243)),
        5: (-364, 62, 1, 728, 604, 75, Fraction(-1, 675)),
        7: (312, -16, 81, 468, 444, 49, Fraction(27, 196)),
        10: (-126, 23, 2, 1134, 927, 80, Fraction(-1, 80)),
    }
    a_columns = {
        2: (Fraction(25, 72), Fraction(-1, 192), Fraction(1, 192)),
        3: (Fraction(5, 9), Fraction(-1, 18), Fraction(1, 18)),
        5: (Fraction(4, 5), Fraction(1, 25), Fraction(-1, 25)),
        7: (Fraction(15, 14), Fraction(-243, 196), Fraction(243, 196)),
        10: (Fraction(9, 8), Fraction(81, 320), Fraction(-81, 320)),
    }
    for p in (2, 3, 7):
        spec = sd.level1_series(p)
        row = sd.d2_params(p)
        assert spec.motive.rho == row.rho, p
        assert sd.d2_integer_form(spec) == (row.a, row.b, row.c), p
    for p, (al, be, ga, a, b, c, rho) in table.items():
        assert sd.d2_convert(al, be, ga, rho) == (a, b, c), p
        assert sd.d2_convert_inverse(a, b, c, rho) == (al, be, ga), p
        assert bp.a1a2a3(a, b, c) == a_columns[p], p


def test_criterion_05_partial_fraction_exactness():
    """pfbeta reproduces the worked degree-6 coefficient row exactly
    with an identically zero residual, and build_integrand reproduces
    the printed (u, v) table for all five degree-2 rows."""
    coeffs = (
        Fraction(3, 8), Fraction(-563, 12096), Fraction(479, 96768),
        Fraction(-17, 110592), Fraction(91, 995328), Fraction(-11, 995328),
        Fraction(1, 995328),
    )
    numerator = IntPoly([2913463287, 33273401586, 138594927588,
                         266389817304, 239897521920, 81969540480])
    denominator = IntPoly.from_linear_factors(
        [(14, 1), (14, 3), (14, 5), (14, 9), (14, 11), (14, 13)],
        scale=217728)
    g = lambda x: numerator(x) / denominator(x)
    got = bp.pfbeta(g, 7, 4, 1, 7, Fraction(1, 2))
    assert got == coeffs
    residual = bp.pfbeta_residual(g, got, 4, 1, 7, Fraction(1, 2))
    for x in (Fraction(1, 3), Fraction(22, 7), Fraction(-5, 4)):
        assert residual(x) == 0, x

    integrands = {
        2: ([200, -3, 3], [576, 0, -1, 1]),
        3: ([20, -2, 2], [36, 0, -1, 1]),
        5: ([16, 4], [20, 4, 1]),
        7: ([840, -972, 972], [784, 0, -729, 729]),
        10: ([45, 27], [40, 15, 9]),
    }
    for p, (u, v) in integrands.items():
        pair = bp.build_integrand(sd.d2_params(p))
        assert pair.u_poly == IntPoly(u), p
        assert pair.v_poly == IntPoly(v), p


def test_criterion_06_integral_and_closed_forms():
    """Quadrature of each integrand recovers log p to 40 digits; the
    closed-form combination is exactly 1 * log p, for the real algebraic
    points (p = 2, 3, 7) and the complex ones (p = 5, 10)."""
    for p in (2, 3, 5, 7, 10):
        report = bp.integral_check(bp.build_integrand(sd.d2_params(p)), p, 40)
        assert report.passed, (p, report.difference)
    for p in (2, 3, 7, 5, 10):
        assert bp.log_from_closed_forms(p, bits=200) == (1, p)


def test_criterion_07_wz_certificates():
    """Exact telescoping over the full 21x21 grid for every stored
    certificate (Gaussian arithmetic for the p = 2+-i pair), and the
    companion sums recover log 2, log 3, log 5 to 40 digits."""
    for label in wzcert.certificate_labels():
        report = wzcert.certificate_telescoping_check(
            wzcert.certificate_get(label), 20, 20)
        assert report.passed, (label, report.failures)
        assert report.points == 441, label
    for label, p, terms in (("log2-s2t1", 2, 60), ("log3-s1t2", 3, 70),
                            ("log5-s2t1+i", 5, 65)):
        value = wzcert.gst_series_sum(wzcert.certificate_get(label),
                                      terms, 256)
        want = Fraction(machin.log_decimal(p, 55))
        assert abs(value.log_value.to_fraction() - want) \
            < Fraction(1, 10 ** 40), label


def test_criterion_08_search_rediscovery():
    """The lattice search, run at 200 working digits over the stated
    prime boxes with no cost cutoff, rediscovers both flagship series;
    both runs together stay under two minutes."""
    motive = sd.catalog_get("log2-eq8").motive
    runs = {2: ((2, 3), ((-8, 0), (-8, 0))), 3: ((3,), ((-8, 0),))}
    found = {}
    started = time.perf_counter()
    for p, (primes, bounds) in runs.items():
        strategy = relsearch.LatticeStrategy(
            primes=primes, exponent_bounds=bounds, working_digits=200)
        bits = max(int(200 * relsearch.LOG2_10) + 32, 3 * 64 + 64)
        need = 2 * bits + 16
        target = FixedReal.from_rational(
            Fraction(machin.log_decimal(p, need // 3 + 8)), need + 32)
        found[p] = relsearch.search(motive, target, 1, strategy)
    elapsed = time.perf_counter() - started
    assert any(c.rho == Fraction(1, 3888) and c.coefficients == (2, -297, 1794)
               for c in found[2]), [(str(c.rho), c.coefficients) for c in found[2]]
    assert any(c.rho == Fraction(1, 243) and c.coefficients == (1, -14, 88)
               for c in found[3]), [(str(c.rho), c.coefficients) for c in found[3]]
    assert elapsed < 120, elapsed


def test_criterion_09_alternating_suite():
    """The scan over [2, 133] finds exactly the four sporadic targets
    with their full parameter rows; the convergence edge lands within
    1e-3 of (11.2691, 1.3233, 133.5126)."""
    hits = altseries.scan_range(2, 133)
    assert [hit.p for hit in hits] == [5, 10, 21, 56]
    table = {
        5: (-1, (728, 604, 75), Fraction(-1, 675)),
        10: (-15, (1134, 927, 80), Fraction(-1, 80)),
        21: (-3, (8840, 6940, 441), Fraction(-256, 3969)),
        56: (-7, (179630, 126775, 5376), Fraction(-15625, 48384)),
    }
    with mpmath.workdps(45):
        points = {
            5: (mpmath.sqrt(2), mpmath.pi / 4),
            10: (mpmath.sqrt(6), mpmath.atan(mpmath.sqrt(mpmath.mpf(5) / 3))),
            21: (mpmath.mpf(4), mpmath.pi / 3),
            56: (5 * mpmath.sqrt(2), mpmath.atan(mpmath.sqrt(7))),
        }
        for hit in hits:
            m, abc, rho = table[hit.p]
            assert (hit.m, (hit.a, hit.b, hit.c)) == (m, abc), hit.p
            assert hit.rho == rho, hit.p
            r_want, phi_want = points[hit.p]
            assert abs(float(hit.r) - float(r_want)) < 1e-9, hit.p
            assert abs(float(hit.phi) - float(phi_want)) < 1e-9, hit.p
    r, phi, p_limit = altseries.convergence_limit()
    for got, want in ((r, 11.2691), (phi, 1.3233), (p_limit, 133.5126)):
        assert abs(float(got) - want) < 1e-3, (float(got), want)


def test_criterion_10_parametric_families():
    """Every family member inside its convergent range reproduces the
    oracle at 60 digits; the degree-6 family also holds at the interior
    rational point p = 5/2."""
    domains = [
        (sd.level1_series, range(2, 14)),
        (sd.level2_series, range(2, 22)),
        (sd.d4_family, range(2, 29)),
        (sd.d6_family, range(2, 18)),
    ]
    for family, targets in domains:
        for p in targets:
            got = binsplit.evaluate(family(p), 60).decimal_digits
            assert got == machin.log_decimal(p, 60), (family.__name__, p)
    got = binsplit.evaluate(sd.d6_family(Fraction(5, 2)), 60).decimal_digits
    assert got == machin.log_decimal(Fraction(5, 2), 60)


@pytest.mark.xfail(strict=True, reason="the stated degree-6 domain ends at "
                   "p = 34, but the family's rate crosses |rho| = 1 between "
                   "p = 17 and p = 18, so the series diverges there; the "
                   "constructor refuses the divergent rows")
def test_criterion_10_degree6_stated_domain_upper_part():
    """The degree-6 family is advertised up to p = 34; beyond p = 17 the
    rate exceeds 1 in absolute value and no convergent series exists."""
    for p in range(18, 35):
        got = binsplit.evaluate(sd.d6_family(p), 60).decimal_digits
        assert got == machin.log_decimal(p, 60), p
