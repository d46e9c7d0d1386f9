import decimal
import math
import os
import random
import threading
import time
from fractions import Fraction

import pytest

from logseries import binsplit as bs
from logseries import machin
from logseries import seriesdef as sd
from logseries.exactnum import IntPoly

LOG2_50 = "0.69314718055994530941723212145817656807550013436025"
LOG3_50 = "1.09861228866810969139524523692252570464749055782274"
LOG5_50 = "1.60943791243410037460075933322618763952560135426851"


def test_evaluate_reference_50_digits():
    assert bs.evaluate(sd.catalog_get("log2-eq8"), 50).decimal_digits == LOG2_50
    assert bs.evaluate(sd.catalog_get("log3-eq8a"), 50).decimal_digits == LOG3_50
    assert bs.evaluate(sd.catalog_get("log5-eq8b"), 50).decimal_digits == LOG5_50


def test_digits_result_fields():
    r = bs.evaluate(sd.catalog_get("log3-eq8a"), 30)
    assert r.series_label == "log3-eq8a"
    assert r.requested_digits == 30
    assert len(r.decimal_digits.partition(".")[2]) == 30
    assert set(r.decimal_digits) <= set("0123456789.")


def meaning(node):
    """What a node stands for: its product ratio P/Q and its sum T/Q.
    Common-factor removal changes the triple with the shape of the tree,
    never these two."""
    return Fraction(node.P, node.Q), Fraction(node.T, node.Q)


def test_merge_identity_and_associativity():
    spec = sd.catalog_get("log3-eq8a")
    rng = random.Random(31)
    for _ in range(20):
        a = rng.randint(1, 40)
        m = a + rng.randint(1, 15)
        b = m + rng.randint(1, 15)
        left = bs.split_range(spec, a, m)
        right = bs.split_range(spec, m, b)
        whole = bs.split_range(spec, a, b)
        assert meaning(left.merge(right)) == meaning(whole)
        if b - a <= bs.LEAF_TERMS:
            # one flat leaf removes nothing: the triples agree exactly
            assert left.merge(right) == whole
    for _ in range(10):
        a = rng.randint(1, 30)
        cuts = sorted(rng.sample(range(a + 1, a + 40), 2))
        n1 = bs.split_range(spec, a, cuts[0])
        n2 = bs.split_range(spec, cuts[0], cuts[1])
        n3 = bs.split_range(spec, cuts[1], cuts[1] + 5)
        assert meaning(n1.merge(n2).merge(n3)) == meaning(n1.merge(n2.merge(n3)))


def test_split_matches_naive_rational_sum():
    rng = random.Random(37)
    labels = list(sd.catalog_labels())
    specs = [sd.catalog_get(rng.choice(labels)) for _ in range(8)]
    # start-0 members: the folded denominator is y(n+1), not x(n)
    specs += [sd.level1_series(Fraction(8, 7)),
              sd.level2_series(Fraction(1, 2)),
              sd.d4_family(Fraction(5, 2)), sd.d6_family(3)]
    for spec in specs:
        n = rng.randint(2, 60)
        lo = spec.start_index
        node = bs.split_range(spec, lo, lo + n)
        naive = sum((spec.term(k) for k in range(lo, lo + n)), Fraction(0))
        assert bs.node_sum(spec, node) == naive, spec.label


def naive_partial_sums(spec, sizes):
    """Exact sum of the first n terms for each n in `sizes`, by Fractions,
    with rho^n M(n) stepped term by term from the motive's parameters."""
    motive, poly, den = spec.motive, spec.numerator_poly, spec.denominator_poly
    lo = spec.start_index
    h = motive.rho ** lo * motive.value(lo)
    acc, sums = Fraction(0), {}
    for n in range(lo, lo + max(sizes)):
        acc += spec.normalizer * poly(n) / den(n) * h
        if n + 1 - lo in sizes:
            sums[n + 1 - lo] = acc
        h *= motive.rho * (math.prod(n + r for r in motive.num_params)
                           / math.prod(n + q for q in motive.den_params))
    return sums


def check_partial_sums(spec, sizes):
    lo = spec.start_index
    naive = naive_partial_sums(spec, sizes)
    for n in sizes:
        node = bs.split_range(spec, lo, lo + n)
        assert bs.node_sum(spec, node) == naive[n], (spec.label, n)


def test_leaves_match_naive_rational_sum(monkeypatch):
    # one term, a flat leaf and its neighbours, three leaves with an
    # uneven remainder, and both sides of a common-factor removal
    # boundary; rho > 0, rho < 0 and rho = 0 (x = 1 members: P = 0 and
    # gcd(0, Q) = |Q|), at start 1 and start 0
    specs = [sd.catalog_get(label) for label in sd.catalog_labels()]
    specs += [sd.level1_series(Fraction(8, 7)), sd.d4_family(Fraction(5, 2)),
              sd.d6_family(3), sd.level2_series(Fraction(1, 2)),
              sd.level2_series(3)]
    specs += [sd.level1_series(1), sd.d4_family(1), sd.d6_family(1),
              sd.level2_series(1)]
    leaf = bs.LEAF_TERMS
    sizes = (1, leaf - 1, leaf, leaf + 1, 3 * leaf + 5, 511, 512, 513)
    with monkeypatch.context() as m:
        m.setattr(bs, "INT_LEAF_TERMS", 512)
        for spec in specs:
            check_partial_sums(spec, sizes)
    top = bs.INT_LEAF_TERMS
    check_partial_sums(sd.level2_series(3), (top - 1, top, top + 1))


def test_common_factor_removal_shortens_q():
    spec = sd.catalog_get("log2-eq8")
    # one flat leaf over the range keeps Q = prod y(k) whole
    full = bs._leaf(bs._compiled(spec), 1, 513).Q
    reduced = bs.split_range(spec, 1, 513).Q
    assert reduced.bit_length() <= 0.7 * full.bit_length()
    assert full % reduced == 0


def test_compiled_constants_are_coprime():
    for label in sd.catalog_labels():
        comp = bs._compiled(sd.catalog_get(label))
        assert math.gcd(comp.x_const, comp.y_const) == 1, label


def test_split_range_rejects_bad_range():
    spec = sd.catalog_get("log2-eq8")
    with pytest.raises(ValueError):
        bs.split_range(spec, 0, 5)  # below start_index
    with pytest.raises(ValueError):
        bs.split_range(spec, 5, 5)


def test_start_zero_series_first_term_has_empty_product():
    spec = sd.level1_series(2)
    node = bs.split_range(spec, 0, 1)
    # term 0 carries no hypergeometric ratio factor at all
    assert bs.node_sum(spec, node) == (spec.normalizer * spec.numerator_poly(0)
                                       / spec.denominator_poly(0))


def test_doubling_digits_roughly_doubles_terms():
    for label in ("log2-eq8", "log2-eq18"):
        spec = sd.catalog_get(label)
        n1 = sd.estimate_terms(spec, 1000)
        n2 = sd.estimate_terms(spec, 2000)
        assert n2 < 2.2 * n1


def _assert_tail_below(spec, bits):
    """certified_range's sum is within 2^-bits of one over 3x the terms;
    returns its term count."""
    hi, node = bs.certified_range(spec, bits)
    lo = spec.start_index
    assert meaning(node) == meaning(bs.split_range(spec, lo, hi))
    far = bs.node_sum(spec, bs.split_range(spec, lo, lo + 3 * (hi - lo)))
    assert abs(far - bs.node_sum(spec, node)) < Fraction(1, 2 ** bits), \
        (spec.label, spec.motive.rho, bits, hi)
    return hi - lo


@pytest.mark.parametrize("name", ["1,2", "3,2", "M4C", "3,4"])
def test_certified_range_bounds_the_tail_of_every_weighted_sum(name):
    # the sums s_0..s_h the relation search detects with, at rates near
    # RHO_BOUND, where 1/(1 - q) matters, and far below it
    if name == "M4C":
        motive = sd.catalog_get("log2-eq13").motive
        top, bot = motive.num_params, motive.den_params
    else:
        top, bot = sd.gamma_quotient_motive(*map(int, name.split(",")))
    for rho in (Fraction(1, 2), Fraction(5, 9), Fraction(1, 3888),
                Fraction(1, 2 ** 40)):
        for sign in (1, -1):
            motive = sd.Motive(top, bot, sign * rho)
            for i in range(len(top)):
                spec = sd.SeriesSpec(motive, IntPoly([0] * i + [1]), 1, 1, 1,
                                     f"s_{i}")
                for bits in (8, 24, 53, 100, 333):
                    _assert_tail_below(spec, bits)


def test_certified_range_bounds_tails_that_shrink_slower_than_rho():
    # the motive's factors make every s_i above shrink faster than rho;
    # n^8 and n^12 outgrow them, and only ((hi+1)/hi)^deg in q covers it.
    # The first count, where |rho|^count reaches 2^-bits, then falls short.
    grown = []
    for rho in (Fraction(1, 2), Fraction(5, 9)):
        motive = sd.Motive(*sd.gamma_quotient_motive(1, 2), rho)
        for i in (4, 8, 12):
            spec = sd.SeriesSpec(motive, IntPoly([0] * i + [1]), 1, 1, 1,
                                 f"n^{i}")
            for bits in (8, 24, 53, 100, 333):
                first = math.ceil(bits / -math.log2(rho))
                grown.append(_assert_tail_below(spec, bits) > first)
    assert any(grown)


def test_certified_range_bounds_every_catalog_and_family_tail():
    # start 0 and 1, numerators with several signed coefficients, scales
    specs = [sd.catalog_get(label) for label in sd.catalog_labels()]
    specs += [sd.level1_series(5), sd.level2_series(3), sd.d4_family(7),
              sd.d6_family(Fraction(5, 2))]
    for spec in specs:
        for bits in (16, 200, 1000):
            _assert_tail_below(spec, bits)
    # rate 0: the first term is the whole sum
    params = sd.gamma_quotient_motive(1, 2)
    zero = sd.SeriesSpec(sd.Motive(*params, 0), IntPoly([1, 1]), 1, 1, 1,
                         "rate 0")
    assert bs.certified_range(zero, 100)[0] == 2
    one = sd.SeriesSpec(sd.Motive(*params, 1), IntPoly([1]), 1, 1, 1, "rate 1")
    with pytest.raises(ValueError, match="rate 1: series diverges"):
        bs.certified_range(one, 10)


def tail_excess(spec, bits, few):
    """(tail below 2^-bits, N - least N) for certified_range's count N,
    each tail exact against the sum over 3N terms; the least N is sought
    at most `few` terms down."""
    hi, node = bs.certified_range(spec, bits)
    lo, bound = spec.start_index, Fraction(1, 2 ** bits)
    far = bs.node_sum(spec, bs.split_range(spec, lo, lo + 3 * (hi - lo)))
    below = abs(far - bs.node_sum(spec, node)) < bound
    least = hi
    while least - 1 > lo and hi - least <= few and abs(far - bs.node_sum(
            spec, bs.split_range(spec, lo, least - 1))) < bound:
        least -= 1
    return below, hi - least


def test_proven_count_is_within_a_few_terms_of_the_least():
    # catalog rows (start 1), family members (start 0), tall coefficients
    # and negative rates. A positive rate near 1 whose motive factors
    # barely shrink makes 1/(1 - q) matter. Without it, or with A(hi)
    # dropped, a tail exceeds the bound; with 10 digits of slack a count
    # runs more than `few` terms past the least
    slow = sd.SeriesSpec(sd.Motive((1,), (Fraction(1, 100),), Fraction(9, 10)),
                         IntPoly([1]), 1, 1, 1, "slow")
    specs = [sd.catalog_get(label) for label in sd.catalog_labels()]
    specs += [sd.level1_series(5), sd.d4_family(Fraction(5, 2)), sd.d4_family(7),
              sd.d6_family(3), sd.level2_series(Fraction(1, 2)),
              sd.level2_series(3), tall(sd.catalog_get("log2-eq18")),
              tall(sd.catalog_get("log7-tableI")),
              tall(sd.level1_series(Fraction(2, 3))), slow]
    few = 4
    for spec in specs:
        for bits in (64, 200):
            below, excess = tail_excess(spec, bits, few)
            assert below and excess <= few, (spec.label, bits, excess)


@pytest.mark.parametrize("make, last", [
    (sd.level1_series, 13), (sd.level2_series, 21), (sd.d4_family, 28),
    (sd.d6_family, 17), (lambda x: sd.beta_family(5, 2, x, "(5,2)"), 42)])
def test_evaluate_is_exact_at_each_family_edge(make, last):
    # the last integer inside each convergence region, where |rho| is
    # nearest 1 and the term count largest; the next one is refused
    assert bs.evaluate(make(last), 60).decimal_digits == \
        machin.log_decimal(last, 60)
    with pytest.raises(ValueError, match="convergence region"):
        make(last + 1)


def test_evaluate_matches_oracle_500_digits_all_catalog():
    for label in sd.catalog_labels():
        spec = sd.catalog_get(label)
        got = bs.evaluate(spec, 500).decimal_digits
        want = machin.log_decimal(sd.CATALOG_TARGETS[label], 500)
        assert got == want, label


def test_evaluate_family_spec_with_fraction_p():
    spec = sd.d4_family(Fraction(5, 2))
    r = bs.evaluate(spec, 40)
    assert r.decimal_digits == machin.log_decimal(Fraction(5, 2), 40)
    header = bs.render_digit_rows(r, Fraction(5, 2)).splitlines()[0]
    assert header == "# log(5/2) digits=40 series=log(5/2)-d4"


def test_evaluate_rejects_bad_input():
    spec = sd.catalog_get("log2-eq8")
    with pytest.raises(ValueError):
        bs.evaluate(spec, 0)
    divergent = sd.SeriesSpec(
        sd.Motive(spec.motive.num_params, spec.motive.den_params, Fraction(1)),
        spec.numerator_poly, spec.denominator_scale, Fraction(1), 1, "divergent")
    with pytest.raises(ValueError):
        bs.evaluate(divergent, 10)


def test_cross_verify_same_constant():
    spec = sd.catalog_get("log2-eq8")
    result, n = bs.cross_verify(spec, sd.catalog_get("log2-eq9"), 500)
    assert n >= 500
    assert result == bs.evaluate(spec, 500)
    _, n = bs.cross_verify(spec, spec, 100)
    assert n >= 100


def test_cross_verify_names_first_difference():
    with pytest.raises(bs.VerificationError) as info:
        bs.cross_verify(sd.catalog_get("log2-eq8"),
                        sd.catalog_get("log3-eq8a"), 50)
    assert "differ at character" in str(info.value)


def test_render_digit_rows_layout():
    r = bs.evaluate(sd.catalog_get("log2-eq8"), 250)
    text = bs.render_digit_rows(r, 2)
    lines = text.splitlines()
    assert lines[0] == "# log(2) digits=250 series=log2-eq8"
    assert lines[1].startswith("0.")
    # 100 digits per full row, grouped in tens
    first = lines[1][2:]
    assert len(first.replace(" ", "")) == 100
    assert first.split(" ") == [first[i * 11:i * 11 + 10] for i in range(10)]
    assert len(lines) == 1 + 3  # 250 digits -> two full rows + one of 50
    assert len(lines[3].strip().replace(" ", "")) == 50


# ----------------------------------------------------------------------
#  int leaves under a decimal upper tree
# ----------------------------------------------------------------------

def test_evaluate_matches_oracle_10000_digits():
    for label in ("log2-eq8", "log2-eq18", "log10-tableI"):
        got = bs.evaluate(sd.catalog_get(label), 10000).decimal_digits
        want = machin.log_decimal(sd.CATALOG_TARGETS[label], 10000)
        assert got == want, label


def test_leaf_size_boundary(monkeypatch):
    # term counts just above, at and just below the leaf size: one leaf
    # converted whole, or two leaves merged in decimal; a 3-term leaf
    # makes a deep decimal tree with uneven halves
    spec = sd.catalog_get("log2-eq9")
    digits = 1200
    want = machin.log_decimal(2, digits)
    seen = []
    real = bs._proven_end
    with monkeypatch.context() as m:
        m.setattr(bs, "_proven_end",
                  lambda comp, bits: seen.append(real(comp, bits)) or seen[-1])
        bs.evaluate(spec, digits)
    n = seen[-1] - spec.start_index
    for leaf in (n + 1, n, n - 1, 3):
        monkeypatch.setattr(bs, "INT_LEAF_TERMS", leaf)
        assert bs.evaluate(spec, digits).decimal_digits == want, leaf


def test_leaf_conversion_is_exact():
    rng = random.Random(41)
    edge = bs.CONVERT_BITS
    values = [0, 1, -1, (1 << edge) - 1, 1 << edge, -(1 << (4 * edge + 3))]
    values += [rng.choice((1, -1)) * rng.getrandbits(bits)
               for bits in (edge + 1, 2 * edge + 1, 10_000, 70_001)]
    with decimal.localcontext(bs._EXACT):
        for v in values:
            assert bs._to_decimal(v) == decimal.Decimal(v), v.bit_length()


def test_negative_limit():
    target = Fraction(1, 2)
    for spec in (sd.d4_family(target), sd.level2_series(target)):
        got = bs.evaluate(spec, 3000).decimal_digits
        assert got.startswith("-0.693")
        assert got == machin.log_decimal(target, 3000), spec.label


def test_caller_decimal_context_is_neither_read_nor_changed():
    want = machin.log_decimal(2, 3000)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.traps[decimal.Inexact] = True
        ctx.clear_flags()
        before = (ctx.prec, dict(ctx.traps), dict(ctx.flags))
        got = bs.evaluate(sd.catalog_get("log2-eq8"), 3000).decimal_digits
        assert decimal.getcontext() is ctx
        assert (ctx.prec, dict(ctx.traps), dict(ctx.flags)) == before
    assert got == want


def test_cross_verify_message_names_the_first_difference_exactly(monkeypatch):
    spec_a, spec_b = sd.catalog_get("log2-eq8"), sd.catalog_get("log2-eq9")
    result_a = bs.evaluate(spec_a, 50)
    text = result_a.decimal_digits
    real = bs.evaluate

    def evaluate_as(changed):
        # the forked child inherits the patch, so spec_b gets `changed`
        return lambda spec, digits: bs.DigitsResult(
            text if spec is spec_a else changed, spec.label, digits)

    # character 30 of "0.6931..." is the 29th fractional digit
    wrong = text[:30] + str((int(text[30]) + 1) % 10) + text[31:]
    monkeypatch.setattr(bs, "evaluate", evaluate_as(wrong))
    with pytest.raises(bs.VerificationError) as info:
        bs.cross_verify(spec_a, spec_b, 50)
    assert str(info.value) == ("log2-eq8 and log2-eq9 differ at character 30 "
                               "after agreeing on 29 digits (requested 50)")
    # a prefix differs nowhere, so only the count fails
    monkeypatch.setattr(bs, "evaluate", evaluate_as(text[:42]))
    with pytest.raises(bs.VerificationError) as info:
        bs.cross_verify(spec_a, spec_b, 50)
    assert str(info.value) == ("log2-eq8 and log2-eq9: only 41 comparable "
                               "digits, requested 50")
    monkeypatch.setattr(bs, "evaluate", real)
    assert bs.cross_verify(spec_a, spec_b, 50) == (result_a, 51)


# ----------------------------------------------------------------------
#  the check series in a second process
# ----------------------------------------------------------------------

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Forces cross_verify's two-process path whatever the CPU count,
    and counts the forks."""
    count = []
    real_fork = os.fork

    def fork():
        count.append(1)
        return real_fork()

    monkeypatch.setattr(bs, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    return count


def evaluate_failing(monkeypatch, spec_b, fail):
    """Patches evaluate so that spec_b calls `fail` instead (in the
    child, which inherits the patch)."""
    real = bs.evaluate
    monkeypatch.setattr(bs, "evaluate", lambda spec, digits: (
        fail() if spec is spec_b else real(spec, digits)))


def test_two_processes_give_the_serial_result(forks):
    spec_a, spec_b = sd.catalog_get("log2-eq8"), sd.catalog_get("log2-eq9")
    assert bs.cross_verify(spec_a, spec_b, 3000) == (
        bs.evaluate(spec_a, 3000), 3001)
    assert len(forks) == 1
    assert_no_child_left()
    with pytest.raises(bs.VerificationError):
        bs.cross_verify(spec_a, sd.catalog_get("log3-eq8a"), 50)
    assert len(forks) == 2
    assert_no_child_left()


def test_digits_longer_than_the_pipe_buffer_arrive_whole(forks):
    spec_a, spec_b = sd.catalog_get("log2-eq8"), sd.catalog_get("log2-eq9")
    result, agreed = bs.cross_verify(spec_a, spec_b, 100_000)
    assert agreed == 100_001
    assert len(result.decimal_digits) == 100_002
    assert_no_child_left()


def test_one_usable_cpu_forks_nothing(forks, monkeypatch):
    spec_a, spec_b = sd.catalog_get("log2-eq8"), sd.catalog_get("log2-eq9")
    want = bs.cross_verify(spec_a, spec_b, 2000)
    assert len(forks) == 1

    def refuse():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(bs, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", refuse)
    assert bs.cross_verify(spec_a, spec_b, 2000) == want
    assert_no_child_left()


def test_other_threads_fork_nothing(forks):
    spec_a, spec_b = sd.catalog_get("log2-eq8"), sd.catalog_get("log2-eq9")
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert bs.cross_verify(spec_a, spec_b, 200)[1] == 201
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()
    assert forks == []


def test_a_failure_here_kills_and_reaps_the_child(forks, monkeypatch):
    spec_a, spec_b = sd.catalog_get("log2-eq8"), sd.catalog_get("log2-eq9")
    real = bs.evaluate

    def evaluate(spec, digits):
        if spec is spec_a:
            raise ValueError("the first series failed")
        time.sleep(60)  # still running when the parent fails
        return real(spec, digits)

    monkeypatch.setattr(bs, "evaluate", evaluate)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^the first series failed$"):
        bs.cross_verify(spec_a, spec_b, 50)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    assert_no_child_left()


def test_a_dead_child_is_reported_with_its_exit_status(forks, monkeypatch):
    spec_a, spec_b = sd.catalog_get("log2-eq8"), sd.catalog_get("log2-eq9")
    evaluate_failing(monkeypatch, spec_b, lambda: os._exit(3))
    with pytest.raises(RuntimeError) as info:
        bs.cross_verify(spec_a, spec_b, 50)
    assert str(info.value) == ("the process evaluating log2-eq9 ended with "
                               "exit status 3 before sending its digits")
    assert_no_child_left()


def test_an_exception_in_the_child_keeps_its_message(forks, monkeypatch):
    spec_a, spec_b = sd.catalog_get("log2-eq8"), sd.catalog_get("log2-eq9")

    def value_error():
        raise ValueError("log2-eq9: series diverges")

    def key_error():
        raise KeyError("log2-eq9")

    evaluate_failing(monkeypatch, spec_b, value_error)
    with pytest.raises(ValueError, match="^log2-eq9: series diverges$"):
        bs.cross_verify(spec_a, spec_b, 50)
    assert_no_child_left()
    evaluate_failing(monkeypatch, spec_b, key_error)
    with pytest.raises(RuntimeError, match="^KeyError: 'log2-eq9'$"):
        bs.cross_verify(spec_a, spec_b, 50)
    assert_no_child_left()
    assert len(forks) == 2


# ----------------------------------------------------------------------
#  fixed-point enclosure at low precision
# ----------------------------------------------------------------------

def first_terms(spec, digits):
    """evaluate's first range [lo, hi) and E for `digits` (guard 10)."""
    comp, places = bs._compiled(spec), digits + 10
    hi = bs._proven_end(comp, -(-places * 3321928094887363 // 10 ** 15))
    return comp, spec.start_index, hi, places


def tall(spec, factor=10 ** 12):
    """The same series with every numerator coefficient `factor` times
    taller, so each block's |t|/q is about `factor` times larger."""
    return sd.SeriesSpec(spec.motive, spec.numerator_poly * factor,
                         spec.denominator_scale, spec.normalizer / factor,
                         spec.start_index, spec.label + "-tall")


def test_enclosure_holds_the_exact_sum():
    # a negative rate near -1, tall coefficients, an x < 1 member, a
    # catalog row; one block over the whole range and blocks of 1 term
    cases = [(sd.level2_series(21), 1), (sd.d6_family(17), 1),
             (sd.d4_family(Fraction(1, 2)), 1),
             (sd.catalog_get("log7-tableI"), 1),
             (tall(sd.level2_series(21)), 10 ** 12),
             (tall(sd.level1_series(Fraction(2, 3))), 10 ** 12)]
    for spec, height in cases:
        comp = bs._compiled(spec)
        lo = spec.start_index
        hi = lo + 120
        node = bs._range_node(comp, lo, hi)
        for width in (30, 200):
            for step in (1, 5, bs.LEAF_TERMS, 40, hi - lo):
                s, e = bs._enclose(comp, lo, hi, width, step)
                blocks = -(-(hi - lo) // step)
                where = (spec.label, width, step)
                assert abs(s * node.Q - (node.T << width)) <= e * node.Q, where
                assert e <= 2 * height * blocks, where


@pytest.fixture
def enclose_calls(monkeypatch):
    """The (comp, lo, hi, width, step) of every _enclose call."""
    calls = []
    real = bs._enclose
    monkeypatch.setattr(bs, "_enclose",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_undecided_width_doubles_without_changing_digits(monkeypatch,
                                                         enclose_calls):
    spec = sd.d4_family(28)
    want = bs.evaluate(spec, 60).decimal_digits
    # 100 bits short of what the digits need: the first W cannot decide
    monkeypatch.setattr(bs, "FIXED_MARGIN_BITS", -100)
    enclose_calls.clear()
    assert bs.evaluate(spec, 60).decimal_digits == want
    widths = [call[3] for call in enclose_calls]
    assert len(widths) >= 2 and widths[1] == 2 * widths[0]
    # no larger W allowed: the exact root decides
    monkeypatch.setattr(bs, "FIXED_MAX_BITS", widths[0])
    enclose_calls.clear()
    assert bs.evaluate(spec, 60).decimal_digits == want
    assert [call[3] for call in enclose_calls] == widths[:1]


@pytest.mark.parametrize("digits", [60, 200])
def test_fixed_and_exact_paths_print_the_same_digits(monkeypatch,
                                                     enclose_calls, digits):
    specs = [sd.level1_series(13), sd.level2_series(21), sd.d4_family(28),
             sd.d6_family(17)]
    fixed = [bs.evaluate(spec, digits).decimal_digits for spec in specs]
    assert len(enclose_calls) >= len(specs)
    monkeypatch.setattr(bs, "FIXED_MAX_BITS", 0)
    exact = [bs.evaluate(spec, digits).decimal_digits for spec in specs]
    assert fixed == exact
    assert fixed[0] == machin.log_decimal(13, digits)


def test_size_rule_picks_the_path_from_sizes():
    def fixed(spec, digits):
        return list(bs._fixed_widths(*first_terms(spec, digits)))

    # 10^5 digits: W is above FIXED_MAX_BITS
    assert not fixed(sd.catalog_get("log2-eq8"), 100_000)
    assert not fixed(sd.catalog_get("log2-eq9"), 100_000)
    # the root of log2-eq8 is about 3 W at 10^4 digits, log7-tableI's 13 W
    assert not fixed(sd.catalog_get("log2-eq8"), 10_000)
    assert fixed(sd.catalog_get("log7-tableI"), 10_000)
    # hundreds of times longer than W at 60 digits
    assert fixed(sd.d4_family(28), 60)
    assert fixed(sd.level2_series(21), 60)


def test_fixed_path_renders_more_than_4300_digits(enclose_calls):
    # str(int) refuses over 4,300 digits by default; log7-tableI's root
    # is about 13 W at 5,000 digits, so the enclosure computes them
    got = bs.evaluate(sd.catalog_get("log7-tableI"), 5000).decimal_digits
    assert enclose_calls
    assert got == machin.log_decimal(7, 5000)
