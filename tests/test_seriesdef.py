import dataclasses
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest

from logseries import betaproof as bp
from logseries import machin
from logseries import seriesdef as sd


def test_motive_validation():
    with pytest.raises(ValueError):
        sd.Motive((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 6)),
                  Fraction(1, 10))  # shared 1/2
    with pytest.raises(ValueError):
        sd.Motive((Fraction(3, 2),), (Fraction(1, 6),), Fraction(1, 10))
    with pytest.raises(ValueError):
        sd.Motive((Fraction(1),), (Fraction(1, 6),), Fraction(3, 2))
    with pytest.raises(ValueError):
        sd.Motive((Fraction(1), Fraction(1, 2)), (Fraction(1, 6),), Fraction(1, 10))


# r(n) of every catalog row, as `catalog` prints it
CATALOG_DENOMINATORS = {
    "log2-eq8": [0, -2, 4],
    "log3-eq8a": [0, -1, 2],
    "log5-eq8b": [0, 1, -2],
    "log2-eq9": [0, -10, 92, -216, 144],
    "log2-eq11": [0, -12, 88, -192, 128],
    "log2-eq13": [0, -6, 39, -81, 54],
    "log3-eq15a": [0, -5, 46, -108, 72],
    "log2-eq18": [0, -15, 218, -1140, 2680, -2880, 1152],
    "log7-tableI": [0, -1, 2],
    "log10-tableI": [0, -1, 2],
}


def test_series_spec_derives_its_denominator():
    good = sd.catalog_get("log2-eq8")
    with pytest.raises(ValueError, match="nonzero"):
        sd.SeriesSpec(good.motive, good.numerator_poly, Fraction(0),
                      Fraction(1), 1, "bad")
    for label, want in CATALOG_DENOMINATORS.items():
        got = sd.catalog_get(label).denominator_poly.coefficients
        assert list(got) == want, label
    for spec in (sd.level1_series(2), sd.level2_series(2),
                 sd.d4_family(Fraction(5, 2)), sd.d6_family(3)):
        assert spec.denominator_poly == sd.denominator_basis(spec.motive, 0)


PRINTED_COSTS = {
    "log2-eq8": Fraction(9679, 10000),
    "log3-eq8a": Fraction(14564, 10000),
    "log5-eq8b": Fraction(12280, 10000),
    "log2-eq9": Fraction(11335, 10000),
    "log2-eq11": Fraction(12292, 10000),
    "log2-eq13": Fraction(13001, 10000),
    "log3-eq15a": Fraction(16459, 10000),
    "log2-eq18": Fraction(12189, 10000),
}


def test_costs_match_printed_values():
    for label, want in PRINTED_COSTS.items():
        got = sd.binary_splitting_cost(sd.catalog_get(label)).to_fraction()
        assert abs(got - want) < Fraction(1, 10 ** 4), label


def test_cost_invariant_under_numerator_scaling():
    spec = sd.catalog_get("log3-eq8a")
    scaled = sd.SeriesSpec(spec.motive, spec.numerator_poly * 7,
                           spec.denominator_scale, spec.normalizer,
                           spec.start_index, "scaled")
    assert sd.binary_splitting_cost(spec) == sd.binary_splitting_cost(scaled)


def test_cost_rejects_divergent():
    spec = sd.catalog_get("log2-eq8")
    divergent = sd.SeriesSpec(
        sd.Motive(spec.motive.num_params, spec.motive.den_params, Fraction(1)),
        spec.numerator_poly, spec.denominator_scale, Fraction(1), 1, "divergent")
    with pytest.raises(ValueError):
        sd.binary_splitting_cost(divergent)
    with pytest.raises(ValueError):
        sd.estimate_terms(divergent, 10)


def test_estimate_terms_reference_points():
    assert sd.estimate_terms(sd.catalog_get("log3-eq8a"), 100) == 47
    assert sd.estimate_terms(sd.catalog_get("log2-eq8"), 1000) == 282
    with pytest.raises(ValueError):
        sd.estimate_terms(sd.catalog_get("log2-eq8"), 0)


def test_estimate_terms_is_tight():
    rng = random.Random(5)
    labels = list(sd.catalog_labels())
    for _ in range(12):
        spec = sd.catalog_get(rng.choice(labels))
        d = rng.randint(1, 400)
        n = sd.estimate_terms(spec, d)
        rho = abs(spec.motive.rho)
        assert rho ** n <= Fraction(1, 10 ** (d + 10))
        if n > 1:
            assert rho ** (n - 1) > Fraction(1, 10 ** (d + 10))


def _exact_power_terms(rho, digits):
    """Smallest N with |rho|^N <= 10^-(digits+10), by exact powers alone:
    the reference the float term count must reproduce."""
    s = digits + 10
    num, den = abs(rho.numerator), rho.denominator
    n = max(1, int(s * math.log(10) / (math.log(den) - math.log(num))) - 2)
    while num ** n * 10 ** s > den ** n:
        n += 1
    while n > 1 and num ** (n - 1) * 10 ** s <= den ** (n - 1):
        n -= 1
    return n


def test_estimate_terms_matches_exact_powers_on_catalog():
    for label in sd.catalog_labels():
        spec = sd.catalog_get(label)
        for digits in (1, 60, 1000, 100_000):
            assert sd.estimate_terms(spec, digits) == \
                _exact_power_terms(spec.motive.rho, digits), (label, digits)


def test_estimate_terms_matches_exact_powers_on_families():
    members = [sd.level1_series(Fraction(8, 7)), sd.level2_series(Fraction(1, 2)),
               sd.level2_series(3), sd.d4_family(Fraction(5, 2)),
               sd.d6_family(3), sd.d6_family(17)]
    row = sd.d2_params(5)
    members.append(sd.d2_series_from_abc(row.a, row.b, row.c, row.rho, "abc-5"))
    for spec in members:
        for start in (0, 1):
            member = dataclasses.replace(spec, start_index=start)
            for digits in (1, 60, 1000):
                assert sd.estimate_terms(member, digits) == \
                    _exact_power_terms(spec.motive.rho, digits), \
                    (spec.label, start, digits)


def test_estimate_terms_decides_exact_ties_by_powers(monkeypatch):
    # rho = 10^-k with k dividing digits + 10 puts the float count on an
    # integer: only the exact fallback may decide it
    fallbacks = []
    real = sd._exact_terms
    monkeypatch.setattr(sd, "_exact_terms",
                        lambda *args: fallbacks.append(args) or real(*args))
    base = sd.catalog_get("log2-eq8")
    ties = 0
    for digits in range(1, 201):
        s = digits + 10
        for k in range(1, s + 1):
            if s % k == 0:
                rho = Fraction(1, 10 ** k)
                spec = dataclasses.replace(base, motive=sd.Motive(
                    base.motive.num_params, base.motive.den_params, rho))
                got = sd.estimate_terms(spec, digits)
                assert got == _exact_power_terms(rho, digits) == s // k
                ties += 1
    assert len(fallbacks) == ties


def test_estimate_terms_needs_no_exact_power_at_a_million_digits(monkeypatch):
    def no_powers(*args):
        raise AssertionError("near-tie fallback taken")
    monkeypatch.setattr(sd, "_exact_terms", no_powers)
    spec = sd.catalog_get("log2-eq8")
    digits = 10 ** 6
    n = sd.estimate_terms(spec, digits)
    with mpmath.workdps(50):
        rho = abs(spec.motive.rho)
        t = (digits + 10) * mpmath.log(10) / mpmath.log(
            mpmath.mpf(rho.denominator) / rho.numerator)
        assert n == int(mpmath.ceil(t))
        assert min(t - mpmath.floor(t), mpmath.ceil(t) - t) > sd.TERMS_MARGIN * t


def test_catalog_lookup_and_structure():
    assert len(sd.catalog_labels()) == 10
    with pytest.raises(KeyError):
        sd.catalog_get("log2-nonsense")
    for label in sd.catalog_labels():
        spec = sd.catalog_get(label)
        assert spec.label == label
        assert spec.denominator_poly.degree() == spec.motive.d


def test_catalog_reference_rows():
    eq8a = sd.catalog_get("log3-eq8a")
    assert list(eq8a.numerator_poly.coefficients) == [-14, 88]
    assert eq8a.motive.rho == Fraction(1, 243)
    assert eq8a.motive.num_params == (1, Fraction(1, 2))
    assert eq8a.motive.den_params == (Fraction(1, 6), Fraction(5, 6))

    eq13 = sd.catalog_get("log2-eq13")
    assert list(eq13.numerator_poly.coefficients) == \
        [-13858, 223397, -742257, 686430]
    assert eq13.motive.rho == Fraction(1, 2 ** 13 * 3 ** 3)

    log7 = sd.catalog_get("log7-tableI")
    assert sd.d2_integer_form(log7) is not None
    assert log7.normalizer == Fraction(1, 81)
    assert log7.motive.rho == Fraction(27, 196)


def _naive_sum(spec, terms):
    return sum((spec.term(n) for n in
                range(spec.start_index, spec.start_index + terms)),
               Fraction(0))


def test_catalog_partial_sums_match_oracle_50_digits():
    for label in sd.catalog_labels():
        spec = sd.catalog_get(label)
        target = sd.CATALOG_TARGETS[label]
        total = _naive_sum(spec, sd.estimate_terms(spec, 50))
        lo, hi = machin.log_interval(target, 55)
        scaled = total.numerator * 10 ** 55 // total.denominator
        assert abs(scaled - lo) < 10 ** 6, label  # agree well beyond 50 digits


def test_catalog_export_json():
    doc = json.loads(sd.catalog_export())
    assert len(doc) == 10
    by_label = {row["label"]: row for row in doc}
    assert by_label["log2-eq8"]["rho"] == "1/3888"
    assert by_label["log5-eq8b"]["rho"] == "-1/675"
    assert by_label["log2-eq18"]["d"] == 6
    assert abs(Fraction(by_label["log2-eq8"]["cost"]) - Fraction(9679, 10000)) \
        < Fraction(1, 10 ** 4)
    for row in doc:
        assert set(row) >= {"label", "d", "rho", "cost", "motive_num",
                            "motive_den", "numerator_poly",
                            "denominator_poly", "normalizer", "start_index"}


# ----------------------------------------------------------------------
#  d=2 conversions and the parameter table
# ----------------------------------------------------------------------

TABLE_ROWS = {
    2: (1794, -297, 2, 598, 499, 144, Fraction(1, 3888)),
    3: (88, -14, 1, 176, 148, 27, Fraction(1, 243)),
    5: (-364, 62, 1, 728, 604, 75, Fraction(-1, 675)),
    7: (312, -16, 81, 468, 444, 49, Fraction(27, 196)),
    10: (-126, 23, 2, 1134, 927, 80, Fraction(-1, 80)),
}


def test_d2_convert_all_rows_both_ways():
    for p, (al, be, ga, a, b, c, rho) in TABLE_ROWS.items():
        assert sd.d2_convert(al, be, ga, rho) == (a, b, c), p
        assert sd.d2_convert_inverse(a, b, c, rho) == (al, be, ga), p


def test_d2_convert_round_trip_random():
    rng = random.Random(23)
    from math import gcd
    for _ in range(60):
        al = rng.randint(-500, 500) or 1
        be = rng.randint(-500, 500)
        ga = rng.randint(1, 500)
        g = gcd(gcd(abs(al), abs(be)), ga)
        al, be, ga = al // g, be // g, ga // g
        rho = Fraction(rng.choice([-3, -1, 1, 3]), 2 ** rng.randint(1, 12))
        back = sd.d2_convert_inverse(*sd.d2_convert(al, be, ga, rho), rho)
        assert back == (al, be, ga)


def test_d2_convert_rejects_zero():
    with pytest.raises(ValueError):
        sd.d2_convert(1, 1, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        sd.d2_convert_inverse(1, 1, 0, Fraction(1, 2))


def test_d2_params_table():
    for p, (al, be, ga, a, b, c, rho) in TABLE_ROWS.items():
        row = sd.d2_params(p)
        assert (row.alpha, row.beta, row.gamma) == (al, be, ga)
        assert (row.a, row.b, row.c) == (a, b, c)
        assert row.rho == rho
        # rate formula consistency is enforced by the constructor
        assert Fraction(4) / (27 * row.z_squared * (1 - row.z_squared) ** 2) \
            == row.rho
    with pytest.raises(KeyError):
        sd.d2_params(6)


def test_d2_params_rejects_inconsistent_row():
    with pytest.raises(ValueError):
        sd.D2Params(p=3, alpha=88, beta=-14, gamma=1, a=176, b=148, c=28,
                    rho=Fraction(1, 243), z_squared=Fraction(4))


def test_d2_series_from_abc_is_consistent():
    spec = sd.d2_series_from_abc(176, 148, 27, Fraction(1, 243), "check")
    assert spec.start_index == 0
    assert sd.d2_integer_form(spec) == (176, 148, 27)
    total = _naive_sum(spec, sd.estimate_terms(spec, 40))
    lo, hi = machin.log_interval(3, 45)
    scaled = total.numerator * 10 ** 45 // total.denominator
    assert abs(scaled - lo) < 10 ** 6


# ----------------------------------------------------------------------
#  Parametric families
# ----------------------------------------------------------------------

def test_level1_reproduces_table_rows():
    for p in (2, 3, 7):
        spec = sd.level1_series(p)
        row = sd.d2_params(p)
        assert spec.motive.rho == row.rho
        assert sd.d2_integer_form(spec) == (row.a, row.b, row.c)


def test_level1_domain():
    with pytest.raises(ValueError):
        sd.level1_series(14)
    with pytest.raises(ValueError):
        sd.level1_series(Fraction(1, 100))
    sd.level1_series(Fraction(5, 2))  # interior point is fine


def test_level2_reference_points():
    s2 = sd.level2_series(2)
    assert s2.motive.rho == Fraction(-1, 288)
    assert list(s2.numerator_poly.coefficients) == [25, 34]
    s3 = sd.level2_series(3)
    assert s3.motive.rho == Fraction(-1, 48)
    assert list(s3.numerator_poly.coefficients) == [40, 56]


def test_level2_degenerate_p1():
    spec = sd.level2_series(1)
    assert spec.normalizer == 0
    assert spec.motive.rho == 0
    assert _naive_sum(spec, 3) == 0


def test_level2_domain():
    sd.level2_series(21)
    with pytest.raises(ValueError):
        sd.level2_series(22)


def test_families_sum_to_log_p_50_digits():
    cases = [(sd.level1_series, 3), (sd.level2_series, 4),
             (sd.d4_family, 3), (sd.d6_family, 3)]
    for fn, p in cases:
        spec = fn(p)
        total = _naive_sum(spec, sd.estimate_terms(spec, 50))
        lo, hi = machin.log_interval(p, 55)
        scaled = total.numerator * 10 ** 55 // total.denominator
        assert abs(scaled - lo) < 10 ** 6, spec.label


def test_d4_rate_matches_catalog_at_p2():
    assert sd.d4_family(2).motive.rho == Fraction(1, 1350000)
    assert sd.d4_family(2).motive.rho == sd.catalog_get("log2-eq9").motive.rho


def test_catalog_rows_are_family_members():
    # each gamma-quotient catalog row with a real rational root is the
    # derived series at its x: the same motive and rate, and the same
    # summand as an exact rational function once both start at n = 0
    members = [("log2-eq8", 1, 2, 2), ("log3-eq8a", 1, 2, 3),
               ("log7-tableI", 1, 2, 7), ("log2-eq9", 3, 2, 2),
               ("log3-eq15a", 3, 2, 3), ("log2-eq18", 3, 4, 2),
               ("log2-eq11", 1, 4, 2)]
    for label, m, nu, x in members:
        row = sd.catalog_get(label)
        derived = sd.beta_family(m, nu, x, "derived")
        assert (tuple(sorted(row.motive.num_params)),
                tuple(sorted(row.motive.den_params))) \
            == sd.gamma_quotient_motive(m, nu), label
        assert row.motive.rho == derived.motive.rho, label
        n1, d1 = bp.summand_quotient(row)
        n2, d2 = bp.summand_quotient(derived)
        assert n1 * d2 == n2 * d1, label


def test_beta_family_sums_to_log_x_on_other_motives():
    # one interior point of each motive in the region list
    for m, nu, x in [(1, 2, 5), (3, 2, 7), (3, 4, Fraction(5, 2)),
                     (5, 2, Fraction(8, 7)), (7, 2, 20), (9, 2, 30),
                     (1, 4, 2), (1, 6, 3), (5, 4, 10)]:
        spec = sd.beta_family(m, nu, x, "derived")
        total = _naive_sum(spec, sd.estimate_terms(spec, 50))
        lo, hi = machin.log_interval(x, 55)
        scaled = total.numerator * 10 ** 55 // total.denominator
        assert abs(scaled - lo) < 10 ** 6, (m, nu, x)


# (rho, numerator coefficients, normalizer), recorded from the
# construction in Fraction polynomial arithmetic that the integer one
# replaced
BETA_FAMILY_REFERENCE = {
    (1, 2, 2): ("1/3888", [499, 598], "1/144"),
    (3, 2, Fraction(5, 2)): (
        "1594323/147061250000",
        [1940405085, 11729512542, 20351296396, 10793369224], "3/33614000"),
    (3, 4, 17): (
        "1125899906842624/1353858444295749",
        [28620307861269, 293902058208182, 1008997261602776,
         1506291813302608, 949530190826320, 175072156764000], "16/11507606901"),
    (3, 4, 1): (
        "0", [19305, 219534, 912184, 1750672, 1575056, 537824], "0"),
    (5, 2, 34): (
        "1816331681783800622529/3361510927115141150000",
        [854801580536199756999, 11065728162097906779462,
         47332801993026229792168, 86121843241628062836880,
         68924453069398070850800, 19746699620847802268000],
        "33/510220918506250000"),
    (1, 6, 3): (
        "16/823543",
        [9018937, 100092254, 409909560, 779682960, 697377168, 237175776],
        "4/1701"),
    (5, 4, Fraction(8, 7)): (
        "1/703067887159825420800000",
        [2783458989548720018561529, 48591297353871905599790490,
         336733281440638571696437160, 1211601859807113974821193040,
         2464462931492493649884255376, 2855651795951178487340473760,
         1757209718285145592281273600, 445508364140879474566336000],
        "1/48998009894400000000"),
    (9, 2, Fraction(2, 3)): (
        "43046721/17414042395690917968750000",
        [68052559798646274154275, 1641668436913039796194470,
         16390579201151952438073488, 89683730555767965550731040,
         298492982217345432866033696, 630491480670605229114004544,
         849669086930479024470409472, 707728305839230642545943040,
         331958685666197693062886144, 67037516590930450962105856],
        "-1/134277343750000"),
}


def test_beta_family_reference_points():
    for (m, nu, x), (rho, numerator, normalizer) in BETA_FAMILY_REFERENCE.items():
        spec = sd.beta_family(m, nu, x, "ref")
        assert spec.motive.rho == Fraction(rho), (m, nu, x)
        assert spec.numerator_poly.coefficients == tuple(numerator), (m, nu, x)
        assert spec.normalizer == Fraction(normalizer), (m, nu, x)
        assert (spec.denominator_scale, spec.start_index) == (1, 0)
        assert spec.denominator_poly == sd.denominator_basis(spec.motive, 0)


def test_beta_family_refuses_a_summand_without_polynomial_numerator(monkeypatch):
    # a motive whose denominator keeps 1/2 and drops 5/6 leaves the
    # factor 6n + 5 to divide out, and the (1, 2) sum has no such factor
    monkeypatch.setattr(sd, "gamma_quotient_motive", lambda m, nu: (
        (Fraction(1, 3), Fraction(1)), (Fraction(1, 6), Fraction(1, 2))))
    with pytest.raises(ValueError,
                       match=r"^\(1, 2\): the summand has no polynomial numerator$"):
        sd.beta_family(1, 2, 2, "bad")


def test_beta_family_needs_odd_m_and_even_nu():
    for m, nu in [(2, 2), (0, 2), (1, 1), (3, 3), (2, 1)]:
        with pytest.raises(ValueError, match="odd m and even nu"):
            sd.beta_family(m, nu, 2, "bad")


def test_d6_rate_matches_catalog_at_p2():
    assert sd.d6_family(2).motive.rho == Fraction(1, 355770576)
    assert sd.d6_family(2).motive.rho == sd.catalog_get("log2-eq18").motive.rho


def test_d6_degenerate_p1():
    spec = sd.d6_family(1)
    assert spec.normalizer == 0
    assert _naive_sum(spec, 2) == 0


def test_family_domains_reject_divergent_p():
    with pytest.raises(ValueError):
        sd.d4_family(29)
    with pytest.raises(ValueError):
        sd.d6_family(18)  # the series rate exceeds 1 from p=18 on
    sd.d6_family(17)
    # the rate divides by p and p + 1, so p <= 0 is refused before it
    for fn in (sd.level1_series, sd.d4_family, sd.d6_family):
        for p in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="convergence region"):
                fn(p)


def test_empirical_rate_approaches_rho():
    # ratio of successive term magnitudes settles near |rho| within 5%
    for fn, p in [(sd.d4_family, 2), (sd.d4_family, 3),
                  (sd.d6_family, Fraction(5, 2)), (sd.level1_series, 3)]:
        spec = fn(p)
        t20 = spec.term(20 + spec.start_index)
        t21 = spec.term(21 + spec.start_index)
        ratio = abs(t21 / t20)
        rho = abs(spec.motive.rho)
        assert abs(ratio / rho - 1) < Fraction(1, 20), spec.label
