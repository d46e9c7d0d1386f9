"""Tests for the telescoping certificate machinery.

The strongest checks are exact: the pair identity on a full grid, the
independently derived one-step recurrences of both companions, and the
term-for-term match between certificate sums and the catalog series.
The ratio-form telescoping check and the certificate sum are compared
with reference versions built on closed-form companion values.
Digit-level checks lean on the interval oracle.
"""

import dataclasses
from fractions import Fraction
from math import ceil, isqrt, log

import pytest

from logseries import cli, machin, seriesdef, wzcert
from logseries.exactnum import FixedReal, QuadraticRational
from logseries.wzcert import (
    Certificate,
    WZContext,
    base_f,
    certificate_get,
    certificate_labels,
    certificate_telescoping_check,
    exact_series_sum,
    f_st,
    gst_series_sum,
)


def test_context_validation():
    WZContext(1, 2, 2, 1)
    WZContext(2, 5, 1, 0)
    WZContext(1, QuadraticRational(2, -1, -1), 2, 1)
    WZContext(1, 1, 1, 0)  # degenerate endpoint is allowed
    with pytest.raises(ValueError):
        WZContext(3, 2, 2, 1)
    with pytest.raises(ValueError):
        WZContext(1, 2, 0, 1)
    with pytest.raises(ValueError):
        WZContext(1, 2, 1, -1)
    with pytest.raises(ValueError):
        WZContext(1, 6, 2, 1)
    with pytest.raises(ValueError):
        WZContext(1, Fraction(5, 2), 2, 1)
    with pytest.raises(ValueError):
        WZContext(1, QuadraticRational(3, 1, -1), 2, 1)
    with pytest.raises(ValueError):  # parameters live in Q(i) only
        WZContext(1, QuadraticRational(2, 1, 2), 2, 1)


def test_base_companion_worked_points():
    # Hand-expanded single points: variant 1 at p=3 has F(0,0) = (2/4)*B(1/2,1)
    # = (1/2)*2 = 1; variant 2 at p=2 has F(0,0) = (1/(8/3))*B(1,1/2) = 3/4.
    assert base_f(WZContext(1, 3, 1, 0), 0, 0) == QuadraticRational(1, 0, -1)
    assert base_f(WZContext(2, 2, 1, 0), 0, 0) == QuadraticRational(Fraction(3, 4), 0, -1)


def test_base_companion_negative_arguments_rejected():
    ctx = WZContext(1, 2, 1, 0)
    with pytest.raises(ValueError):
        base_f(ctx, -1, 0)
    with pytest.raises(ValueError):
        base_f(ctx, 0, -1)


def test_base_companion_one_step_recurrences():
    # Both companions satisfy first-order recurrences in each index that
    # follow from cancelling shared factors by hand; checking them at many
    # points pins the implementation against an independent derivation.
    parameters = [QuadraticRational(a, b, -1)
                  for a, b in ((2, 0), (3, 0), (5, 0), (2, 1), (2, -1))]
    points = [(0, 0), (0, 3), (3, 0), (2, 2), (5, 1), (1, 5), (7, 4)]
    for p in parameters:
        ctx1 = WZContext(1, p, 1, 0)
        ctx2 = WZContext(2, p, 1, 0)
        up = (p - 1) ** 2
        for n, k in points:
            f1 = base_f(ctx1, n, k)
            assert base_f(ctx1, n, k + 1) * (p + 1) ** 2 * (2 * k + 2 * n + 3) \
                == f1 * up * (2 * k + 1)
            assert base_f(ctx1, n + 1, k) * (p * 4) * (2 * k + 2 * n + 3) \
                == -(f1 * up * (2 * n + 2))
            f2 = base_f(ctx2, n, k)
            assert base_f(ctx2, n, k + 1) * (p * 4) * (2 * n + 2 * k + 3) \
                == -(f2 * up * (2 * k + 2))
            assert base_f(ctx2, n + 1, k) * (p + 1) ** 2 * (2 * n + 2 * k + 3) \
                == f2 * up * (2 * n + 1)


def test_base_companion_conjugate_parameter_symmetry():
    plus = WZContext(1, QuadraticRational(2, 1, -1), 2, 1)
    minus = WZContext(1, QuadraticRational(2, -1, -1), 2, 1)
    for n, k in [(0, 0), (1, 2), (4, 3), (6, 6)]:
        assert base_f(minus, n, k) == base_f(plus, n, k).conjugate()


def test_f_st_index_arithmetic():
    ctx = WZContext(1, 2, 1, 0)
    assert f_st(ctx, 4, 7) == base_f(ctx, 4, 7)
    shifted = WZContext(1, 2, 2, 1)
    assert f_st(shifted, 1, 0) == base_f(shifted, 2, 1)
    wide = WZContext(1, 3, 2, 3)
    assert f_st(wide, 2, 1) == base_f(wide, 4, 7)


def test_row_zero_sums_are_log_p():
    # Summing the top row of either companion walks down one of the two
    # slow source series, so the partial sums must agree with the oracle.
    digits = 40
    for p in (2, 3, 4, 5):
        want = Fraction(machin.log_decimal(p, digits + 10))
        for variant in (1, 2):
            ctx = WZContext(variant, p, 1, 0)
            if variant == 1:
                rate = Fraction(p - 1, p + 1) ** 2
            else:
                rate = Fraction((p - 1) ** 2, 4 * p)
            terms = ceil(digits * log(10) / -log(float(rate))) + 20
            total = Fraction(0)
            for k in range(terms):
                total += base_f(ctx, 0, k).a
            assert abs(total - want) < Fraction(1, 10 ** digits), (p, variant)


def test_step_ratios_match_closed_form():
    contexts = [certificate_get(label).context for label in certificate_labels()]
    contexts += [
        WZContext(variant, p, s, t)
        for variant in (1, 2) for p in (5, QuadraticRational(2, 1, -1))
        for s, t in ((1, 0), (3, 2))]
    for ctx in contexts:
        (a_re, a_im, a_den), (b_re, b_im, b_den) = ctx.n_constant, ctx.k_constant
        assert a_den > 0 and b_den > 0
        for n in range(6):
            for k in range(6):
                here = f_st(ctx, n, k)
                na, da, nb, db = ctx.steps(n, k)
                assert min(na, da, nb, db) > 0
                a = QuadraticRational(Fraction(a_re * na, a_den * da),
                                      Fraction(a_im * na, a_den * da), -1)
                b = QuadraticRational(Fraction(b_re * nb, b_den * db),
                                      Fraction(b_im * nb, b_den * db), -1)
                assert a * here == f_st(ctx, n + 1, k), (ctx, n, k)
                assert b * here == f_st(ctx, n, k + 1), (ctx, n, k)


def _reference_telescoping_check(cert, n_max, k_max):
    # The identity itself, on closed-form companion values.
    ctx = cert.context
    failures = []
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            lhs = f_st(ctx, n + 1, k) - f_st(ctx, n, k)
            rhs = (cert.ratio(n, k + 1) * f_st(ctx, n, k + 1)
                   - cert.ratio(n, k) * f_st(ctx, n, k))
            if lhs != rhs:
                failures.append((n, k))
    return wzcert.TelescopingReport(
        cert.label, n_max, k_max, (n_max + 1) * (k_max + 1), tuple(failures))


def _moved(cert, part, index, by):
    # the certificate with one coefficient of its real or imag part moved
    coefficients = list(getattr(cert, part))
    coefficients[index] += by
    return dataclasses.replace(cert, label=f"{part}[{index}]{by:+d}",
                               **{part: tuple(coefficients)})


def _flipped(cert):
    return dataclasses.replace(cert, imag=tuple(-c for c in cert.imag),
                               label="flipped")


def test_telescoping_check_matches_closed_form_reference():
    certs = [certificate_get(label) for label in certificate_labels()]
    good = certificate_get("log2-s2t1")
    conjugate = certificate_get("log5-s2t1+i")
    certs += [_moved(good, "real", 5, 1), _moved(good, "real", 1, -1),
              _moved(conjugate, "imag", 3, 1), _flipped(conjugate)]
    for cert in certs:
        report = certificate_telescoping_check(cert, 5, 5)
        assert report == _reference_telescoping_check(cert, 5, 5), cert.label
    assert [certificate_telescoping_check(c, 5, 5).passed for c in certs[-4:]] \
        == [False, False, False, False]


def test_telescoping_degenerate_parameter_passes():
    # At p = 1 every companion value is 0, so the identity holds for any
    # ratio; it is the one context where dividing by F would be wrong.
    cert = Certificate(WZContext(1, 1, 2, 1), 7, (0, 0, -2, 0, 1, 0),
                       (0, 0, 0, 0, 0, 3), "degenerate")
    report = certificate_telescoping_check(cert, 6, 6)
    assert report.passed and report.points == 49
    assert report == _reference_telescoping_check(cert, 6, 6)
    assert gst_series_sum(cert, 10, 128).log_value.to_fraction() == 0


def test_exact_series_sum_matches_closed_form_terms():
    for label in certificate_labels():
        cert = certificate_get(label)
        partial = QuadraticRational(0, 0, -1)
        for n in range(31):
            partial += cert.ratio(n, 0) * f_st(cert.context, n, 0)
            assert exact_series_sum(cert, n) == partial, (label, n)


# The eight certificates as the paper's companions give them: R(n, k) is
# (real + i imag) / (scale (6n + 2k + 3)(6n + 2k + 5)).
def _log5_s2t1_real(n, k):
    return 110 * k * k + (646 * n + 433) * k + 936 * n * n + 1246 * n + 389


def _log5_s1t2_real(n, k):
    return 88 * k * k + (542 * n + 359) * k + 832 * n * n + 1108 * n + 346


PRINTED_CERTIFICATES = {
    "log2-s2t1": (32, lambda n, k: 144 * k * k + (828 * n + 558) * k
                  + 1196 * n * n + 1596 * n + 499, lambda n, k: 0),
    "log2-s1t2": (36, lambda n, k: 128 * k * k + (782 * n + 519) * k
                  + 1196 * n * n + 1596 * n + 499, lambda n, k: 0),
    "log3-s2t1": (9, lambda n, k: 48 * k * k + (256 * n + 176) * k
                  + 352 * n * n + 472 * n + 148, lambda n, k: 0),
    "log3-s1t2": (3, lambda n, k: 9 * k * k + (56 * n + 37) * k
                  + 88 * n * n + 118 * n + 37, lambda n, k: 0),
    "log5-s2t1+i": (25, _log5_s2t1_real,
                    lambda n, k: (10 * k + 26 * n + 23) * (2 * k + 2 * n + 1)),
    "log5-s1t2+i": (25, _log5_s1t2_real,
                    lambda n, k: -2 * (8 * k + 26 * n + 21) * (k + 2 * n + 1)),
    "log5-s2t1-i": (25, _log5_s2t1_real,
                    lambda n, k: -(10 * k + 26 * n + 23) * (2 * k + 2 * n + 1)),
    "log5-s1t2-i": (25, _log5_s1t2_real,
                    lambda n, k: 2 * (8 * k + 26 * n + 21) * (k + 2 * n + 1)),
}


def test_derived_certificates_equal_the_printed_ones():
    assert certificate_labels() == list(PRINTED_CERTIFICATES)
    for label, (scale, real, imag) in PRINTED_CERTIFICATES.items():
        cert = certificate_get(label)
        assert cert.scale == scale, label  # the least common denominator
        ratio = cert.ratio
        for n in range(21):
            for k in range(21):
                den = scale * (6 * n + 2 * k + 3) * (6 * n + 2 * k + 5)
                want = QuadraticRational(Fraction(real(n, k), den),
                                         Fraction(imag(n, k), den), -1)
                assert ratio(n, k) == want, (label, n, k)


def test_targets_select_labels():
    assert [WZContext(1, p, 2, 1).target
            for p in (2, 3, QuadraticRational(2, 1, -1), QuadraticRational(2, -1, -1))] \
        == [2, 3, 5, 5]
    assert certificate_labels(2) == ["log2-s2t1", "log2-s1t2"]
    assert certificate_labels(5) == ["log5-s2t1+i", "log5-s1t2+i",
                                     "log5-s2t1-i", "log5-s1t2-i"]
    assert certificate_labels(7) == []


def test_the_grid_check_rejects_a_solve_without_a_certificate():
    # The (3, 1) shift has no certificate of the quadratic shape: the six
    # equations still have a solution, and the grid check refuses it.
    cert = wzcert._derive(WZContext(1, 2, 3, 1), "log2-s3t1")
    report = certificate_telescoping_check(cert, 5, 5)
    assert report.failures[0] == (0, 3)


def test_registry_has_conjugate_pairs():
    labels = certificate_labels()
    assert len(labels) == 8
    assert {"log2-s2t1", "log2-s1t2", "log3-s2t1", "log3-s1t2"} <= set(labels)
    for stem in ("log5-s2t1", "log5-s1t2"):
        assert f"{stem}+i" in labels and f"{stem}-i" in labels
    with pytest.raises(KeyError):
        certificate_get("log11-s2t1")


def test_conjugate_certificates_have_conjugate_coefficients():
    for stem in ("log5-s2t1", "log5-s1t2"):
        plus, minus = certificate_get(f"{stem}+i"), certificate_get(f"{stem}-i")
        assert (minus.scale, minus.real) == (plus.scale, plus.real), stem
        assert minus.imag == tuple(-c for c in plus.imag) and any(plus.imag), stem


def test_telescoping_all_certificates_full_grid():
    for label in certificate_labels():
        report = certificate_telescoping_check(certificate_get(label), 20, 20)
        assert report.points == 441, label
        assert report.passed, (label, report.failures[:4])


def test_telescoping_rejects_perturbed_certificate():
    good = certificate_get("log2-s2t1")
    report = certificate_telescoping_check(_moved(good, "real", 2, 1), 5, 5)
    assert report.failures


def test_every_moved_coefficient_fails_the_grid(capsys, monkeypatch):
    # Each coefficient of a real and of a complex certificate, moved by
    # one, is caught on the default grid at a named point.
    moved = [_moved(certificate_get("log5-s2t1+i"), part, index, by)
             for part in ("real", "imag") for index in range(6) for by in (1, -1)]
    moved += [_moved(certificate_get("log2-s2t1"), "real", index, by)
              for index in range(6) for by in (1, -1)]
    assert len(moved) == 36
    for cert in moved:
        report = certificate_telescoping_check(cert)
        assert report.failures, cert.label
        n, k = report.failures[0]
        assert 0 <= n <= 20 and 0 <= k <= 20, cert.label
    # the k^2 coefficient never reaches the k = 0 sum, so only the grid
    # verdict fails, and wz-verify says so
    derive = wzcert.certificate_get
    monkeypatch.setattr(wzcert, "certificate_get",
                        lambda label: _moved(derive(label), "real", 0, 1))
    assert cli.run(["wz-verify", "--p", "2", "--grid", "5", "--digits", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all("telescoping FAILED on the 6x6 grid" in line and line.endswith(": yes")
               for line in lines)


def test_telescoping_pins_conjugate_sign():
    # Flipping the imaginary part of a conjugate-parameter certificate must
    # break the identity, so the grid check sees a wrong sign pairing.
    report = certificate_telescoping_check(
        _flipped(certificate_get("log5-s2t1+i")), 5, 5)
    assert report.failures


def test_certificate_terms_equal_catalog_terms():
    # The extracted series G(n, 0) is, term for term, the corresponding
    # catalog series shifted by one index; for the conjugate parameters the
    # doubled real part reproduces the log 5 catalog terms.
    pairs = [("log2-s2t1", "log2-eq8"), ("log2-s1t2", "log2-eq8"),
             ("log3-s2t1", "log3-eq8a"), ("log3-s1t2", "log3-eq8a")]
    for cert_label, series_label in pairs:
        cert = certificate_get(cert_label)
        series = seriesdef.catalog_get(series_label)
        for n in range(9):
            g = cert.ratio(n, 0) * f_st(cert.context, n, 0)
            assert g.b == 0
            assert g.a == series.term(n + 1), (cert_label, n)
    series5 = seriesdef.catalog_get("log5-eq8b")
    for cert_label in ("log5-s2t1+i", "log5-s2t1-i", "log5-s1t2+i", "log5-s1t2-i"):
        cert = certificate_get(cert_label)
        for n in range(9):
            g = cert.ratio(n, 0) * f_st(cert.context, n, 0)
            assert g.a * 2 == series5.term(n + 1), (cert_label, n)


def test_gst_series_sum_hits_oracle():
    cases = [("log2-s2t1", 2, 45), ("log2-s1t2", 2, 45),
             ("log3-s2t1", 3, 55), ("log3-s1t2", 3, 55),
             ("log5-s2t1+i", 5, 50), ("log5-s2t1-i", 5, 50),
             ("log5-s1t2+i", 5, 50), ("log5-s1t2-i", 5, 50)]
    for label, p, terms in cases:
        value = gst_series_sum(certificate_get(label), terms, 256)
        assert value.terms == terms + 1
        want = Fraction(machin.log_decimal(p, 60))
        got = value.log_value.to_fraction()
        assert abs(got - want) < Fraction(1, 10 ** 50), label


def test_gst_conjugate_sums_are_conjugate():
    for stem in ("log5-s2t1", "log5-s1t2"):
        plus = exact_series_sum(certificate_get(stem + "+i"), 30)
        minus = exact_series_sum(certificate_get(stem + "-i"), 30)
        assert plus == minus.conjugate() and plus.b != 0, stem
        # a conjugate pair's log value is twice the real part, rounded once
        want = FixedReal.from_rational(2 * plus.a, 192)
        for label in (stem + "+i", stem + "-i"):
            value = gst_series_sum(certificate_get(label), 30, 192)
            assert value.log_value == want and value.terms == 31, label
    assert [f.name for f in dataclasses.fields(wzcert.CertificateSum)] \
        == ["log_value", "terms"]


def _g(cert, n):
    return cert.ratio(n, 0) * f_st(cert.context, n, 0)


def test_gst_divergence_guard():
    ctx = WZContext(1, 2, 2, 1)
    # r(n, 0) = 10^9 n^2 + 1: G(1, 0) is far above G(0, 0)
    growing = Certificate(ctx, 1, (0, 0, 0, 10 ** 9, 0, 1), (0,) * 6, "growing")
    assert _g(growing, 1).norm() > _g(growing, 0).norm()
    with pytest.raises(ValueError, match="do not decrease"):
        gst_series_sum(growing, 10, 128)

    # r(n, 0) = (top - 1) n + 1 with G(1, 0) = G(0, 0): equal magnitudes
    # count as not decreasing
    unit = Certificate(ctx, 1, (0,) * 5 + (1,), (0,) * 6, "unit")
    top = _g(unit, 0) / _g(unit, 1)
    flat = Certificate(ctx, 1, (0, 0, 0, 0, int(top.a) - 1, 1), (0,) * 6, "flat")
    assert _g(flat, 1) == _g(flat, 0)
    with pytest.raises(ValueError, match="do not decrease"):
        gst_series_sum(flat, 10, 128)

    # the least int top with |G(1, 0)| > |G(0, 0)| grows by under a factor
    # 2 in squared norm; here A is complex, with |A|^2 = 5 (na/(10 da))^2
    ctx = WZContext(1, QuadraticRational(2, 1, -1), 1, 0)
    unit = Certificate(ctx, 1, (0,) * 5 + (1,), (0,) * 6, "unit")
    top = isqrt(int(_g(unit, 0).norm() / _g(unit, 1).norm())) + 1
    barely = Certificate(ctx, 1, (0, 0, 0, 0, top - 1, 1), (0,) * 6, "barely")
    assert 1 < _g(barely, 1).norm() / _g(barely, 0).norm() < 2
    with pytest.raises(ValueError, match="do not decrease"):
        gst_series_sum(barely, 10, 128)


def test_exact_series_sum_of_a_constant_certificate():
    # A registry context's A is real; (1, 0) at 2 + i makes it complex.
    ctx = WZContext(1, QuadraticRational(2, 1, -1), 1, 0)
    assert ctx.n_constant[1] != 0
    for ctx in (WZContext(1, 2, 2, 1), ctx):
        constant = Certificate(ctx, 3, (0,) * 5 + (1,), (0,) * 5 + (2,), "constant")
        assert exact_series_sum(constant, 10) \
            == sum(_g(constant, n) for n in range(11)), ctx
