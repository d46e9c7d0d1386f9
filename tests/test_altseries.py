import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest

from logseries import altseries as alt
from logseries import binsplit
from logseries import machin
from logseries import seriesdef as sd
from logseries.exactnum import FixedReal, QuadraticRational


TABLE = {
    5: {"m": -1, "abc": (728, 604, 75), "rho": Fraction(-1, 675)},
    10: {"m": -15, "abc": (1134, 927, 80), "rho": Fraction(-1, 80)},
    21: {"m": -3, "abc": (8840, 6940, 441), "rho": Fraction(-256, 3969)},
    56: {"m": -7, "abc": (179630, 126775, 5376), "rho": Fraction(-15625, 48384)},
}

# Re w and the rate on the alternating branch, recorded from the damped
# Newton solver of (r, phi) that this closed form replaced (512 bits).
NEWTON_REFERENCE = {
    7: ("2.2426406871192851464050661726290942357090156261308",
        "-0.0045999335595139213729449768413615399401135207466472"),
    50: ("3.4537804230988022852508335951927263693153992866281",
         "-0.27413427628880704502041818944161190240613608648162"),
    133: ("3.7592270451226618035305106002898112780379370502208",
          "-0.99538942612242537152674865630192980186279510265824"),
}


def _known_point(p):
    r, phi = {
        5: (mpmath.sqrt(2), mpmath.pi / 4),
        10: (mpmath.sqrt(6), mpmath.atan(mpmath.sqrt(mpmath.mpf(5) / 3))),
        21: (mpmath.mpf(4), mpmath.pi / 3),
        56: (5 * mpmath.sqrt(2), mpmath.atan(mpmath.sqrt(7))),
    }[p]
    return r, phi


def _surd_mpf(x):
    d = mpmath.mpf(x.d.numerator) / x.d.denominator
    return alt._to_mpf(x.a) + alt._to_mpf(x.b) * mpmath.sqrt(d)


def _hit_point(p):
    """w = u + i v at a sporadic p, exactly in Q(sqrt(-v^2))."""
    u = alt._branch(p)[0]
    assert u.b == 0
    return QuadraticRational.root(u.a * u.a - p) + u.a


def test_solve_matches_closed_form_points():
    with mpmath.workprec(400):
        for p in TABLE:
            r, phi = alt._polar(p, 256)
            r_ref, phi_ref = _known_point(p)
            assert abs(alt._to_mpf(r) - r_ref) < mpmath.mpf(2) ** -250
            assert abs(alt._to_mpf(phi) - phi_ref) < mpmath.mpf(2) ** -250


def test_solve_residuals_are_tiny_across_the_range():
    rng = random.Random(19)
    with mpmath.workprec(320):
        for p in rng.sample(range(2, 134), 8):
            r, phi = alt._polar(p, 256)
            rm, pm = alt._to_mpf(r), alt._to_mpf(phi)
            assert rm > 0 and 0 < pm < mpmath.pi
            assert abs(alt._sign_condition(rm, pm)) < mpmath.mpf(2) ** -128
            assert abs(alt._norm_condition(p, rm, pm)) < mpmath.mpf(2) ** -128


def test_solve_rejects_small_p():
    # at p = 1 the branch point degenerates to w = 1: no complex point,
    # rate 0, so the scan starts at 2
    u, rho = alt._branch(1)
    assert (u.a, u.b, rho.a, rho.b) == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        alt.scan_range(1, 1)


def test_bisection_fallback_agrees_with_newton():
    # convergence_limit's exact bisection against the edge the damped
    # Newton iteration of the previous solver found (256 bits)
    r, phi, p = alt.convergence_limit(256)
    want = (Fraction("11.2690969060773813583554469948303744764010"),
            Fraction("1.3233568434136630443098568013773999604810"),
            Fraction("133.5126498706003981921450916646057737853456"))
    for got, ref in zip((r, phi, p), want):
        assert abs(got.to_fraction() - ref) < Fraction(1, 10 ** 39)


def test_branch_matches_newton_references():
    with mpmath.workprec(400):
        for p, (u_ref, rho_ref) in NEWTON_REFERENCE.items():
            u, rho = alt._branch(p)
            assert abs(_surd_mpf(u) - mpmath.mpf(u_ref)) < mpmath.mpf(10) ** -48
            assert abs(_surd_mpf(rho) - mpmath.mpf(rho_ref)) < mpmath.mpf(10) ** -48
    # rho(7) = (62 - 44 sqrt 2)/49, and sqrt(D) = sqrt(288) = 12 sqrt 2
    rho = alt._branch(7)[1]
    assert rho.d == 288
    assert (rho.a, 12 * rho.b) == (Fraction(62, 49), Fraction(-44, 49))


def _branch_in_the_field(p):
    """(u, rho) by arithmetic in Q(sqrt(D)): u = (sqrt(D) - p - 1)/4 and
    rho = near^3 / (far (-108 p)), near, far = p + 1 -+ 2u, the
    construction the closed form replaced."""
    u = (QuadraticRational.root(p * p + 34 * p + 1) - p - 1) / 4
    near, far = -2 * u + (p + 1), 2 * u + (p + 1)
    return u, near * near * near / (far * (-108 * p))


def test_branch_closed_form_matches_the_field_arithmetic():
    points = list(range(2, 201)) + [Fraction(5, 2), Fraction(1, 3),
                                    Fraction(267, 2)]
    for p in points:
        u, rho = alt._branch(p)
        u_ref, rho_ref = _branch_in_the_field(Fraction(p))
        assert (u, rho) == (u_ref, rho_ref), p
        assert (u.d, rho.d) == (u_ref.d, rho_ref.d), p
        assert rho.is_rational() == (p in TABLE), p


def test_rational_rates_only_at_the_four_sporadic_targets():
    # (1) rho(u+) - rho(u-) = 2 beta sqrt(D) for the two roots of the
    # quadratic; 13824 p^2 beta is a polynomial in p of degree at most 3,
    # so agreement at the points below proves the identity. It is nonzero
    # for p > 0, so rho is rational exactly when D is a square.
    for p in range(2, 200):
        beta = alt._branch(p)[1].b
        if beta:
            assert 2 * beta == Fraction(-(p + 1) * (p * p + 7 * p + 1), 108 * p * p)
    # (2) (p + 17)^2 - D = 288: D = s^2 splits 288 into (p+17-s)(p+17+s),
    # two factors of equal parity
    square_d = {(e + 288 // e) // 2 - 17
                for e in range(1, isqrt(288) + 1)
                if 288 % e == 0 and (e + 288 // e) % 2 == 0}
    assert square_d == {0, 1, 5, 10, 21, 56}
    rational = [p for p in range(2, 1000) if alt._branch(p)[1].b == 0]
    assert rational == [5, 10, 21, 56]
    for p in range(2, 134):
        # u+ lies on the circle |w|^2 = p; the other root u- does not
        u_plus = alt._branch(p)[0]
        assert (u_plus * u_plus * -1 + p).sign() > 0
        u_minus = (QuadraticRational.root(p * p + 34 * p + 1) * -1 + (-p - 1)) / 4
        assert (u_minus * u_minus + -p).sign() > 0
        # the other factor of "rho is real", u = -(p^2-6p+1)/(2p+2),
        # makes q = (w-1)^3/(w (w+1)) real, so rho = q^2/108 > 0 there
        u = Fraction(-(p * p - 6 * p + 1), 2 * p + 2)
        w = QuadraticRational.root(u * u - p) + u
        q = (w + -1) * (w + -1) * (w + -1) / (w * (w + 1))
        assert q.b == 0 and q.a != 0


def test_scan_limit_is_the_last_convergent_integer():
    rho_last = alt._branch(alt.SCAN_LIMIT)[1]
    rho_next = alt._branch(alt.SCAN_LIMIT + 1)[1]
    assert (rho_last + 1).sign() > 0
    assert (rho_next + 1).sign() < 0


def test_rate_is_real_negative_rational_at_hits():
    for p, row in TABLE.items():
        rho = alt._branch(p)[1]
        assert rho.b == 0 and rho.a == row["rho"], p


def test_rate_rejects_inconsistent_point():
    hit = alt.scan_range(5, 5)[0]
    off = FixedReal.from_rational(hit.phi.to_fraction() + Fraction(1, 1000), 256)
    with pytest.raises(ValueError, match="system"):
        alt.AlternatingSolution(p=hit.p, r=hit.r, phi=off, rho=hit.rho,
                                m=hit.m, a=hit.a, b=hit.b, c=hit.c)


def test_abc_recovers_printed_rows():
    for p, row in TABLE.items():
        assert alt._abc(_hit_point(p)) == row["abc"], p


def test_abc_rejects_non_sporadic_p():
    assert alt._branch(7)[1].b != 0
    assert alt._examine(7) is None


def test_p5_reproduces_the_catalog_series():
    row = sd.d2_params(5)
    assert alt._branch(5)[1].a == row.rho
    assert alt._abc(_hit_point(5)) == (row.a, row.b, row.c)
    rebuilt = sd.d2_series_from_abc(row.a, row.b, row.c, row.rho, "rebuilt")
    assert binsplit.cross_verify(rebuilt, sd.catalog_get("log5-eq8b"), 60)[1] >= 60


def test_norm_identity_at_hits():
    with mpmath.workprec(320):
        for p in TABLE:
            r, phi = alt._polar(p, 256)
            point = 1 + alt._to_mpf(r) * mpmath.exp(
                mpmath.mpc(0, 1) * alt._to_mpf(phi))
            assert abs(point * mpmath.conj(point) - p) < mpmath.mpf(2) ** -128


def test_rate_agrees_with_parameter_map_route():
    # same rate two ways, exactly: the branch's closed form and
    # (w-1)^6/(108 w^2 (w+1)^2) at the point itself
    for p in TABLE:
        w = _hit_point(p)
        q = (w + -1) * (w + -1) * (w + -1) / (w * (w + 1))
        other = q * q / 108
        assert other.b == 0 and other.a == alt._branch(p)[1].a, p


def test_field_identifier_squarefree_parts():
    assert alt._squarefree_part(1) == 1
    assert alt._squarefree_part(60) == 15
    assert alt._squarefree_part(700) == 7
    assert alt._squarefree_part(12) == 3
    assert alt._squarefree_part(8) == 2
    with pytest.raises(ValueError):
        alt._squarefree_part(0)


def test_convergence_limit_printed_values():
    # the tolerances of acceptance criterion 09, at the default precision
    r, phi, p = alt.convergence_limit()
    assert abs(r.to_fraction() - Fraction(112691, 10000)) < Fraction(1, 1000)
    assert abs(phi.to_fraction() - Fraction(13233, 10000)) < Fraction(1, 1000)
    assert abs(p.to_fraction() - Fraction(1335126, 10000)) < Fraction(1, 1000)
    with mpmath.workprec(320):
        w = 1 + alt._to_mpf(r) * mpmath.exp(mpmath.mpc(0, 1) * alt._to_mpf(phi))
        rate = (w - 1) ** 6 / (108 * w ** 2 * (w + 1) ** 2)
        assert abs(rate + 1) < mpmath.mpf(2) ** -100


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
    with pytest.raises(ValueError, match=r"inside \[2, 133\]"):
        alt.scan_range(1, 5)
    with pytest.raises(ValueError, match=r"inside \[2, 133\]"):
        alt.scan_range(5, 200)
    # reversed bounds inside [2, 133] are not outside it
    with pytest.raises(ValueError, match=r"^scan range \[9, 6\] needs p_lo <= p_hi$"):
        alt.scan_range(9, 6)


def test_scan_reports_undecided_points(monkeypatch):
    real = alt._examine

    def examine(p):
        if p == 7:
            raise ValueError("p=7: series does not reproduce log 7 at 50 digits")
        return real(p)

    monkeypatch.setattr(alt, "_examine", examine)
    with pytest.raises(alt.UndecidedScan) as info:
        alt.scan_range(4, 11)
    assert [h.p for h in info.value.hits] == [5, 10]
    assert info.value.undecided == [(7, "series does not reproduce log 7 at 50 digits")]


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
