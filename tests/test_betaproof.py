import math
import random
import types
from fractions import Fraction

import mpmath
import pytest

from logseries import betaproof as bp
from logseries import binsplit, machin
from logseries import seriesdef as sd
from logseries.exactnum import IntPoly


EXAMPLE_COEFFS = (
    Fraction(3, 8), Fraction(-563, 12096), Fraction(479, 96768),
    Fraction(-17, 110592), Fraction(91, 995328), Fraction(-11, 995328),
    Fraction(1, 995328),
)

PRINTED_A = {
    2: (Fraction(25, 72), Fraction(-1, 192), Fraction(1, 192)),
    3: (Fraction(5, 9), Fraction(-1, 18), Fraction(1, 18)),
    5: (Fraction(4, 5), Fraction(1, 25), Fraction(-1, 25)),
    7: (Fraction(15, 14), Fraction(-243, 196), Fraction(243, 196)),
    10: (Fraction(9, 8), Fraction(81, 320), Fraction(-81, 320)),
}

PRINTED_INTEGRANDS = {
    2: ([200, -3, 3], [576, 0, -1, 1]),
    3: ([20, -2, 2], [36, 0, -1, 1]),
    5: ([16, 4], [20, 4, 1]),
    7: ([840, -972, 972], [784, 0, -729, 729]),
    10: ([45, 27], [40, 15, 9]),
}


def test_a1a2a3_printed_rows():
    for p, want in PRINTED_A.items():
        row = sd.d2_params(p)
        assert bp.a1a2a3(row.a, row.b, row.c) == want, p


def test_a1a2a3_edge_cases():
    first, second, third = bp.a1a2a3(6, 3, 11)
    assert first == 0  # a = 2b kills the first coefficient
    assert second == -third
    with pytest.raises(ValueError):
        bp.a1a2a3(1, 1, 0)


def test_pfbeta_recovers_single_basis_function():
    g = lambda x: 1 / (3 * x + Fraction(1, 2))
    assert bp.pfbeta(g, 3, 2, 1, 3, Fraction(1, 2)) == (1, 0, 0)


def test_pfbeta_printed_example_row():
    numerator = IntPoly([2913463287, 33273401586, 138594927588,
                         266389817304, 239897521920, 81969540480])
    denominator = IntPoly.from_linear_factors(
        [(14, 1), (14, 3), (14, 5), (14, 9), (14, 11), (14, 13)],
        scale=217728)
    g = lambda x: numerator(x) / denominator(x)
    got = bp.pfbeta(g, 7, 4, 1, 7, Fraction(1, 2))
    assert got == EXAMPLE_COEFFS
    residual = bp.pfbeta_residual(g, got, 4, 1, 7, Fraction(1, 2))
    assert residual(Fraction(1, 3)) == 0
    assert residual(Fraction(22, 7)) == 0


def test_pfbeta_pole_collision_names_the_point():
    g = lambda x: 1 / (2 * x + 1)  # pole at the first evaluation point
    with pytest.raises(ValueError, match="k=1"):
        bp.pfbeta(g, 3, 2, 1, 3, Fraction(1, 2))


def test_pfbeta_residual_flags_wrong_coefficients():
    row = sd.d2_params(3)
    g = lambda x: Fraction(row.a * x + row.b, row.c) / ((6 * x + 1) * (6 * x + 5))
    good = bp.pfbeta(g, 3, 2, 1, 3, Fraction(1, 2))
    bad = (good[0] + Fraction(1, 1000),) + good[1:]
    with pytest.raises(ValueError, match="residual"):
        bp.pfbeta_residual(g, bad, 2, 1, 3, Fraction(1, 2))


def test_pfbeta_agrees_with_a1a2a3_on_random_rows():
    rng = random.Random(20260814)
    for _ in range(25):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        c = rng.randint(1, 300)
        g = lambda x: Fraction(a * x + b, c) / ((6 * x + 1) * (6 * x + 5))
        assert bp.pfbeta(g, 3, 2, 1, 3, Fraction(1, 2)) == bp.a1a2a3(a, b, c)


def _signature(motive):
    return (tuple(sorted(motive.num_params)), tuple(sorted(motive.den_params)))


def _decompose(spec, m, nu):
    """The spec's summand over the Pochhammer basis of the gamma-quotient
    motive (m, nu), certified by the residual check."""
    top, bottom = bp.summand_quotient(spec)
    summand = lambda x: top(x) / bottom(x)
    n_count = m + nu
    coefficients = bp.pfbeta(summand, n_count, nu, 1, n_count, Fraction(1, 2))
    bp.pfbeta_residual(summand, coefficients, nu, 1, n_count, Fraction(1, 2))
    return coefficients


def test_decompose_both_printed_conventions():
    # The n>=1 and n>=0 conventions of each tabulated row carry the same
    # summand after the index shift, and it splits into the printed A's.
    labels = {2: "log2-eq8", 3: "log3-eq8a", 5: "log5-eq8b",
              7: "log7-tableI", 10: "log10-tableI"}
    for p, label in labels.items():
        row = sd.d2_params(p)
        shifted = sd.catalog_get(label)
        direct = sd.d2_series_from_abc(row.a, row.b, row.c, row.rho, f"abc-{p}")
        assert _signature(shifted.motive) == sd.gamma_quotient_motive(1, 2)
        assert shifted.motive.rho == direct.motive.rho, label
        n1, d1 = bp.summand_quotient(shifted)
        n2, d2 = bp.summand_quotient(direct)
        assert n1 * d2 == n2 * d1, label
        assert _decompose(shifted, 1, 2) == bp.a1a2a3(row.a, row.b, row.c) \
            == PRINTED_A[p], label


def test_decompose_higher_degree_rows():
    example = sd.catalog_get("log2-eq18")
    assert _signature(example.motive) == sd.gamma_quotient_motive(3, 4)
    assert _decompose(example, 3, 4) == EXAMPLE_COEFFS

    for label, (m, nu) in [("log2-eq9", (3, 2)), ("log3-eq15a", (3, 2)),
                           ("log2-eq11", (1, 4))]:
        spec = sd.catalog_get(label)
        assert _signature(spec.motive) == sd.gamma_quotient_motive(m, nu), label
        assert len(_decompose(spec, m, nu)) == m + nu, label

    # the conjectured degree-4 row is not of beta-integral form
    eq13 = _signature(sd.catalog_get("log2-eq13").motive)
    assert all(sd.gamma_quotient_motive(m, nu) != eq13
               for m in range(8) for nu in range(1, 9))


def test_gamma_quotient_motives_match_catalog():
    cases = [
        ((1, 2), sd.catalog_get("log2-eq8").motive),
        ((1, 4), sd.catalog_get("log2-eq11").motive),
        ((3, 2), sd.catalog_get("log2-eq9").motive),
        ((3, 2), sd.catalog_get("log3-eq15a").motive),
        ((3, 4), sd.catalog_get("log2-eq18").motive),
        ((1, 1), sd.level2_series(2).motive),
    ]
    for (m, nu), motive in cases:
        assert sd.gamma_quotient_motive(m, nu) == _signature(motive), (m, nu)


def test_gamma_quotient_lambda_values():
    assert sd.gamma_quotient_lambda(1, 1) == 4
    assert sd.gamma_quotient_lambda(1, 2) == Fraction(27, 4)
    assert sd.gamma_quotient_lambda(1, 4) == Fraction(3125, 256)
    assert sd.gamma_quotient_lambda(3, 2) == Fraction(3125, 108)
    assert sd.gamma_quotient_lambda(3, 4) == Fraction(823543, 6912)
    assert sd.gamma_quotient_lambda(0, 2) == 1  # 0**0 convention


def _pochhammer_half(count):
    # (1/2)_count as an exact rational: odd numbers over a power of two
    return Fraction(math.prod(range(1, 2 * count, 2)), 1 << count)


def test_gamma_quotient_identity_exact():
    # the motive's Pochhammer product is the gamma quotient
    # lam^n (nu n)! (1/2)_{m n} / (1/2)_{N n}, N = m + nu
    for m, nu in [(1, 1), (1, 2), (1, 4), (3, 2), (3, 4)]:
        motive = sd.Motive(*sd.gamma_quotient_motive(m, nu), 1)
        lam = sd.gamma_quotient_lambda(m, nu)
        for n in range(31):
            want = (lam ** n * math.factorial(nu * n) * _pochhammer_half(m * n)
                    / _pochhammer_half((m + nu) * n))
            assert motive.value(n) == want, (m, nu, n)


def test_build_integrand_printed_table():
    for p, (u, v) in PRINTED_INTEGRANDS.items():
        pair = bp.build_integrand(sd.d2_params(p))
        assert pair.u_poly == IntPoly(u), p
        assert pair.v_poly == IntPoly(v), p


def test_build_integrand_preserves_the_ratio():
    for p in (2, 3, 5, 7, 10):
        row = sd.d2_params(p)
        first, second, third = bp.a1a2a3(row.a, row.b, row.c)
        pair = bp.build_integrand(row)
        for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(7),
                  Fraction(-3, 4)):
            top = first + second * x + third * x * x
            bottom = 1 - Fraction(27, 4) * row.rho * x * x * (1 - x)
            assert pair.u_poly(x) * bottom == pair.v_poly(x) * top, (p, x)


def test_integrand_pair_validation():
    with pytest.raises(ValueError):
        bp.IntegrandPair(IntPoly([Fraction(1, 2)]), IntPoly([1]))
    with pytest.raises(ValueError):
        bp.IntegrandPair(IntPoly([1]), IntPoly([]))
    with pytest.raises(ValueError):
        bp.IntegrandPair(IntPoly([1]), IntPoly([-1, 2]))  # root at 1/2


def test_integral_check_all_printed_rows(monkeypatch):
    # the reference is the oracle, never a series such as the row under proof
    def no_series(*args):
        raise AssertionError("integral_check evaluated a series")

    monkeypatch.setattr(binsplit, "evaluate", no_series)
    for p in (2, 3, 5, 7, 10):
        pair = bp.build_integrand(sd.d2_params(p))
        report = bp.integral_check(pair, p, 40)
        assert report.passed, (p, report.difference)


def test_integral_of_zero_numerator_is_zero():
    pair = bp.IntegrandPair(IntPoly([]), IntPoly([20, 4, 1]))
    assert bp.integral_value(pair, 30) == 0


def _combined_log(p, z_squared, bits=160):
    row = sd.d2_params(p)
    _, phi_b, phi_c, _ = bp.phi_closed_forms(z_squared, bits)
    return (Fraction(6 * row.b - row.a, 24 * row.c) * phi_b
            + Fraction(5 * row.a - 6 * row.b, 24 * row.c) * phi_c)


def test_phi_combination_reaches_log_p():
    with mpmath.workdps(60):
        for p, z_squared in [(2, 9), (3, 4), (7, Fraction(16, 9))]:
            value = _combined_log(p, z_squared)
            want = mpmath.mpf(machin.log_decimal(p, 50)) if p != 7 \
                else mpmath.log(7)
            assert abs(value - want) < mpmath.mpf(10) ** -40, p
            assert abs(mpmath.im(value)) < mpmath.mpf(10) ** -40, p


def test_phi_combination_complex_points():
    # the two rows whose z is imaginary: z = 2i, and z = i sqrt(5/3)
    with mpmath.workdps(60):
        for p, z_squared in [(5, -4), (10, Fraction(-5, 3))]:
            value = _combined_log(p, z_squared)
            want = mpmath.mpf(machin.log_decimal(p, 50)) if p == 5 \
                else mpmath.log(10)
            assert abs(value - want) < mpmath.mpf(10) ** -40, p


def test_phi_alpha_form_combination():
    with mpmath.workdps(60):
        for p, z_squared in [(2, 9), (3, 4)]:
            row = sd.d2_params(p)
            phi_a, _, _, phi_d = bp.phi_closed_forms(z_squared, 160)
            value = (-Fraction(row.beta, row.gamma) * phi_a
                     + Fraction(row.alpha + 2 * row.beta, row.gamma) * phi_d)
            want = mpmath.mpf(machin.log_decimal(p, 50))
            assert abs(value - want) < mpmath.mpf(10) ** -40, p


def test_log_from_closed_forms_all_rows():
    for p in (2, 3, 5, 7, 10):
        assert bp.log_from_closed_forms(p, 160) == (1, p), p


def test_log_from_closed_forms_irrational_point_at_high_precision():
    # p = 10 has the irrational z = i sqrt(5/3); its exact z^2 carries
    # the closed forms' series checks to any precision
    assert bp.log_from_closed_forms(10, bits=700) == (1, 10)


def _perturbed_rows():
    """Each d = 2 row with one of a, b, c moved by +-1: 30 mutants.

    A plain namespace stands in for the row, because D2Params refuses
    an (a, b, c) that disagrees with its alpha form."""
    for p in (2, 3, 5, 7, 10):
        row = sd.d2_params(p)
        for name in "abc":
            for step in (1, -1):
                fields = dict(vars(row), **{name: getattr(row, name) + step})
                yield p, types.SimpleNamespace(**fields)


@pytest.mark.parametrize("p,row", list(_perturbed_rows()))
def test_log_from_closed_forms_refuses_a_perturbed_row(monkeypatch, p, row):
    monkeypatch.setattr(sd, "d2_params", lambda _: row)
    with pytest.raises(ValueError, match=f"^p={p}: "):
        bp.log_from_closed_forms(p, 64)


@pytest.mark.parametrize("z_squared", [
    Fraction(3, 2), Fraction(16, 9), Fraction(199, 100),    # one wrap
    Fraction(201, 100), Fraction(5, 2), 9, -4, Fraction(-5, 3),    # principal
])
def test_phi_branch_rule_on_both_sides_of_its_ends(z_squared):
    # each closed form passes its series check only on the derived branch
    assert len(bp.phi_closed_forms(z_squared, 64)) == 4


def test_phi_rejects_poles_and_divergence():
    for pole in (1, 0, Fraction(1, 3)):
        with pytest.raises(ValueError, match="pole"):
            bp.phi_closed_forms(pole, 64)
    with pytest.raises(ValueError, match="diverge"):
        # |z| = 23/20, just above 1: rho lands outside the unit disc
        bp.phi_closed_forms(Fraction(529, 400), 64)


def test_phi_rejects_rate_too_close_to_one():
    # z^2 just above 4/3 puts rho inside the unit disc but within 1e-5
    # of 1; the term cap refuses it before any series is summed
    with pytest.raises(ValueError, match="too close to 1"):
        bp.phi_closed_forms(Fraction(4, 3) + Fraction(1, 10 ** 6), 64)


def test_z_squared_matches_parameter_map():
    # for the rows with rational z, z equals (p+1)/(p-1)
    for p in (2, 3, 7):
        assert sd.d2_params(p).z_squared == Fraction(p + 1, p - 1) ** 2
