import random
from fractions import Fraction

import mpmath
import pytest

from logseries import altseries as alt
from logseries import binsplit
from logseries import machin
from logseries import seriesdef as sd
from logseries.exactnum import FixedReal


TABLE = {
    5: {"m": -1, "abc": (728, 604, 75), "rho": Fraction(-1, 675)},
    10: {"m": -15, "abc": (1134, 927, 80), "rho": Fraction(-1, 80)},
    21: {"m": -3, "abc": (8840, 6940, 441), "rho": Fraction(-256, 3969)},
    56: {"m": -7, "abc": (179630, 126775, 5376), "rho": Fraction(-15625, 48384)},
}


def _known_point(p):
    r, phi = {
        5: (mpmath.sqrt(2), mpmath.pi / 4),
        10: (mpmath.sqrt(6), mpmath.atan(mpmath.sqrt(mpmath.mpf(5) / 3))),
        21: (mpmath.mpf(4), mpmath.pi / 3),
        56: (5 * mpmath.sqrt(2), mpmath.atan(mpmath.sqrt(7))),
    }[p]
    return r, phi


def test_solve_matches_closed_form_points():
    with mpmath.workprec(400):
        for p in TABLE:
            r, phi = alt.solve_r_phi(p, 256)
            r_ref, phi_ref = _known_point(p)
            assert abs(alt._to_mpf(r) - r_ref) < mpmath.mpf(2) ** -250
            assert abs(alt._to_mpf(phi) - phi_ref) < mpmath.mpf(2) ** -250


def test_solve_residuals_are_tiny_across_the_range():
    rng = random.Random(19)
    with mpmath.workprec(320):
        for p in rng.sample(range(2, 134), 8):
            r, phi = alt.solve_r_phi(p, 256)
            rm, pm = alt._to_mpf(r), alt._to_mpf(phi)
            assert rm > 0 and 0 < pm < mpmath.pi
            assert abs(alt._sign_condition(rm, pm)) < mpmath.mpf(2) ** -128
            assert abs(alt._norm_condition(p, rm, pm)) < mpmath.mpf(2) ** -128


def test_solve_rejects_small_p():
    with pytest.raises(ValueError):
        alt.solve_r_phi(1, 128)


def test_bisection_fallback_agrees_with_newton():
    with mpmath.workprec(320):
        got = alt._solve_by_bisection(21, 256)
        assert got is not None
        r, phi = got
        assert abs(r - 4) < mpmath.mpf(2) ** -250
        assert abs(phi - mpmath.pi / 3) < mpmath.mpf(2) ** -250


def test_rate_is_real_negative_rational_at_hits():
    for p, row in TABLE.items():
        r, phi = alt.solve_r_phi(p, 512)
        rate = alt.rho_from_r_phi(r, phi, 512)
        assert alt.detect_rational(rate, 64) == row["rho"], p


def test_rate_rejects_inconsistent_point():
    r, phi = alt.solve_r_phi(5, 256)
    off = FixedReal.from_rational(phi.to_fraction() + Fraction(1, 1000), 256)
    with pytest.raises(ValueError, match="imaginary"):
        alt.rho_from_r_phi(r, off, 256)


def test_detect_rational_basics():
    exact = FixedReal.from_rational(Fraction(1, 2), 256)
    assert alt.detect_rational(exact, 64) == Fraction(1, 2)
    with mpmath.workprec(360):
        pi_fixed = FixedReal.from_rational(
            sd._mpf_to_fraction(+mpmath.pi), 340)
    assert alt.detect_rational(pi_fixed, 40) is None
    with pytest.raises(ValueError):
        alt.detect_rational(FixedReal.from_rational(Fraction(1, 3), 64), 64)


def test_abc_recovers_printed_rows():
    for p, row in TABLE.items():
        r, phi = alt.solve_r_phi(p, 512)
        assert alt.abc_from_solution(p, r, phi, row["rho"]) == row["abc"], p


def test_abc_rejects_non_sporadic_p():
    r, phi = alt.solve_r_phi(7, 512)
    rate = alt.rho_from_r_phi(r, phi, 512)
    assert alt._confirmed_rational(rate, 64) is None


def test_p5_reproduces_the_catalog_series():
    row = sd.d2_params(5)
    r, phi = alt.solve_r_phi(5, 512)
    rho = alt.detect_rational(alt.rho_from_r_phi(r, phi, 512), 64)
    assert rho == row.rho
    assert alt.abc_from_solution(5, r, phi, rho) == (row.a, row.b, row.c)
    rebuilt = sd.d2_series_from_abc(row.a, row.b, row.c, rho, "rebuilt")
    assert binsplit.cross_verify(rebuilt, sd.catalog_get("log5-eq8b"), 60) >= 60


def test_norm_identity_at_hits():
    with mpmath.workprec(320):
        for p in TABLE:
            r, phi = alt.solve_r_phi(p, 256)
            point = 1 + alt._to_mpf(r) * mpmath.exp(
                mpmath.mpc(0, 1) * alt._to_mpf(phi))
            assert abs(point * mpmath.conj(point) - p) < mpmath.mpf(2) ** -128


def test_rate_agrees_with_parameter_map_route():
    # same rate two ways: the trig form and (w-1)^6/(108 w^2 (w+1)^2)
    with mpmath.workprec(320):
        for p in TABLE:
            r, phi = alt.solve_r_phi(p, 256)
            rate = alt.rho_from_r_phi(r, phi, 256)
            w = 1 + alt._to_mpf(r) * mpmath.exp(
                mpmath.mpc(0, 1) * alt._to_mpf(phi))
            other = (w - 1) ** 6 / (108 * w ** 2 * (w + 1) ** 2)
            assert abs(alt._to_mpf(rate) - other) < mpmath.mpf(2) ** -120


def test_field_identifier_squarefree_parts():
    assert alt._squarefree_part(1) == 1
    assert alt._squarefree_part(60) == 15
    assert alt._squarefree_part(700) == 7
    assert alt._squarefree_part(12) == 3
    with pytest.raises(ValueError):
        alt._squarefree_part(0)


def test_convergence_limit_printed_values():
    r, phi, p = alt.convergence_limit(256)
    assert abs(r.to_fraction() - Fraction(112691, 10000)) < Fraction(1, 1000)
    assert abs(phi.to_fraction() - Fraction(13233, 10000)) < Fraction(1, 1000)
    assert abs(p.to_fraction() - Fraction(1335126, 10000)) < Fraction(1, 1000)
    rate = alt.rho_from_r_phi(r, phi, 256)
    assert abs(rate.to_fraction() + 1) < Fraction(1, 2 ** 100)


def test_scan_narrow_window_is_empty():
    assert alt.scan_range(6, 9) == []


def test_scan_full_range_finds_the_four_rows():
    hits = alt.scan_range(2, 133)
    assert [h.p for h in hits] == [5, 10, 21, 56]
    for hit in hits:
        row = TABLE[hit.p]
        assert hit.m == row["m"]
        assert (hit.a, hit.b, hit.c) == row["abc"]
        assert hit.rho == row["rho"]


def test_scan_hits_reproduce_log_p():
    for hit in alt.scan_range(5, 5):
        got = binsplit.evaluate(hit.series(), 50).decimal_digits
        assert got == machin.log_decimal(hit.p, 50)


def test_scan_range_validation():
    with pytest.raises(ValueError):
        alt.scan_range(1, 5)
    with pytest.raises(ValueError):
        alt.scan_range(5, 200)
    with pytest.raises(ValueError):
        alt.scan_range(9, 6)
    with pytest.raises(ValueError):
        alt.scan_range(5, 5, bits=alt.MIN_BITS - 1)


def test_scan_reports_undecided_points(monkeypatch):
    real = alt._examine

    def examine(p, bits):
        if p == 7:
            raise RuntimeError("solver diverged")
        return real(p, bits)

    monkeypatch.setattr(alt, "_examine", examine)
    with pytest.raises(alt.UndecidedScan) as info:
        alt.scan_range(4, 11, bits=288)
    assert [h.p for h in info.value.hits] == [5, 10]
    assert info.value.undecided == [(7, "solver diverged")]


def test_solution_invariants():
    hit = alt.scan_range(21, 21)[0]
    with pytest.raises(ValueError, match="negative"):
        alt.AlternatingSolution(p=hit.p, r=hit.r, phi=hit.phi,
                                rho=-hit.rho, m=hit.m,
                                a=hit.a, b=hit.b, c=hit.c)
    with pytest.raises(ValueError, match="squarefree"):
        alt.AlternatingSolution(p=hit.p, r=hit.r, phi=hit.phi,
                                rho=hit.rho, m=-12,
                                a=hit.a, b=hit.b, c=hit.c)
    with pytest.raises(ValueError, match="coprime"):
        alt.AlternatingSolution(p=hit.p, r=hit.r, phi=hit.phi,
                                rho=hit.rho, m=hit.m,
                                a=2 * hit.a, b=2 * hit.b, c=2 * hit.c)
    with pytest.raises(ValueError, match="system"):
        alt.AlternatingSolution(p=hit.p + 1, r=hit.r, phi=hit.phi,
                                rho=hit.rho, m=hit.m,
                                a=hit.a, b=hit.b, c=hit.c)
