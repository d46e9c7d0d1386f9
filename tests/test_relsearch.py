import logging
import os
import random
import threading
import time
from fractions import Fraction
from math import gcd

import pytest

from logseries import binsplit, machin
from logseries import relsearch as rs
from logseries.exactnum import FixedReal, IntPoly
from logseries.seriesdef import Motive, SeriesSpec, catalog_get, denominator_basis


def _m2a(rho=Fraction(1, 2)):
    return Motive((Fraction(1), Fraction(1, 2)),
                  (Fraction(1, 6), Fraction(5, 6)), rho)


def _log_fixed(p, digits, bits):
    return FixedReal.from_rational(Fraction(machin.log_decimal(p, digits)),
                                   bits)


def _truncated_si(motive, i, n_terms):
    """s_i cut after n_terms, exactly, from the series relsearch sums."""
    spec = SeriesSpec(motive, IntPoly([0] * i + [1]), 1, 1, 1, f"s_{i}")
    return binsplit.node_sum(spec, binsplit.split_range(spec, 1, n_terms + 1))


# ----------------------------------------------------------------------
#  Partial sums
# ----------------------------------------------------------------------

def test_single_term_sum_is_the_first_term():
    motive = _m2a(Fraction(1, 243))
    got = FixedReal.from_rational(_truncated_si(motive, 0, 1), 256)
    assert abs(got.to_fraction() - Fraction(2, 135)) <= Fraction(1, 2 ** 255)


def test_sums_stabilize_once_the_tail_is_spent():
    # two grades of the same sum differ by less than the coarser one
    for rho in (Fraction(1, 3888), Fraction(-1, 2)):
        motive = _m2a(rho)
        for i in range(2):
            a, b = rs._sum_si(motive, i, 200), rs._sum_si(motive, i, 400)
            assert abs(a - b) < Fraction(1, 2 ** 200), (rho, i)


def test_weighted_sums_rebuild_log3():
    motive = _m2a(Fraction(1, 243))
    s1 = FixedReal.from_rational(rs._sum_si(motive, 1, 500), 500)
    s0 = FixedReal.from_rational(rs._sum_si(motive, 0, 500), 500)
    combo = 88 * s1.to_fraction() - 14 * s0.to_fraction()
    want = Fraction(machin.log_decimal(3, 130))
    assert abs(combo - want) < Fraction(1, 10 ** 100)


def test_kernel_sums_match_an_independent_fraction_sum():
    sig6 = _m2a(Fraction(1, 3888))
    alternating = _m2a(Fraction(-1, 675))
    d4 = catalog_get("log2-eq9").motive
    n_terms, bits = 25, 800

    def want(motive, i, denom):
        return sum((Fraction(n ** i) / denom(n) * motive.rho ** n
                    * motive.value(n) for n in range(1, n_terms + 1)),
                   Fraction(0))

    for motive in (sig6, alternating, d4):
        denom = denominator_basis(motive, 1)
        for i in range(4):
            got = FixedReal.from_rational(_truncated_si(motive, i, n_terms),
                                          bits)
            assert got == FixedReal.from_rational(want(motive, i, denom),
                                                  bits), (motive, i)
    # a non-integer lambda, which only the compiled scale carries
    for i in range(4):
        spec = SeriesSpec(sig6, IntPoly([0] * i + [1]), Fraction(5, 6),
                          1, 1, f"s_{i}")
        node = binsplit.split_range(spec, 1, n_terms + 1)
        assert binsplit.node_sum(spec, node) == \
            want(sig6, i, spec.denominator_poly), i


def test_motive_denominator_clears_fractions():
    assert denominator_basis(_m2a(), 1) == IntPoly([0, -1, 2])  # n(2n-1)


# ----------------------------------------------------------------------
#  lindep
# ----------------------------------------------------------------------

def test_lindep_exact_dyadic_pair():
    one = FixedReal.from_rational(Fraction(1), 256)
    half = FixedReal.from_rational(Fraction(1, 2), 256)
    got = rs.lindep([one, half], 64)
    assert got in ([1, -2], [-1, 2])


def test_lindep_doubled_logarithm():
    ln2 = Fraction(machin.log_decimal(2, 200))
    values = [FixedReal.from_rational(ln2, 660),
              FixedReal.from_rational(2 * ln2, 660)]
    got = rs.lindep(values, 64)
    assert got in ([2, -1], [-2, 1])


def test_lindep_finds_the_log3_relation():
    motive = _m2a(Fraction(1, 243))
    bits = 333  # about 100 working digits
    values = [_log_fixed(3, 110, bits),
              FixedReal.from_rational(rs._sum_si(motive, 1, bits), bits),
              FixedReal.from_rational(rs._sum_si(motive, 0, bits), bits)]
    got = rs.lindep(values, 64)
    assert got in ([-1, 88, -14], [1, -88, 14])


def test_lindep_refuses_thin_precision():
    one = FixedReal.from_rational(Fraction(1), 128)
    half = FixedReal.from_rational(Fraction(1, 2), 128)
    with pytest.raises(ValueError, match="bits"):
        rs.lindep([one, half], 64)
    with pytest.raises(ValueError):
        rs.lindep([one], 8)


def test_lindep_exact_zero_inputs():
    zero = FixedReal.from_rational(Fraction(0), 256)
    third = FixedReal.from_rational(Fraction(1, 3), 256)
    assert rs.lindep([zero, third], 64) == [1, 0]
    assert rs.lindep([third, zero], 64) is None
    sixth = FixedReal.from_rational(Fraction(1, 6), 256)
    assert rs.lindep([third, zero, sixth], 64) in ([1, 0, -2], [-1, 0, 2])


def test_lindep_returns_none_without_a_relation(caplog):
    # log 2 and log 3 are multiplicatively independent; any integer
    # relation would need astronomically large coefficients, and the
    # reduced basis proves that none lies below the bound.
    values = [_log_fixed(2, 200, 660), _log_fixed(3, 200, 660)]
    with caplog.at_level(logging.WARNING, logger="logseries.relsearch"):
        assert rs.lindep(values, 64) is None
    assert not caplog.records


def test_lindep_norm_bound_is_sharp(caplog):
    # [1, 2^-c] has the relation (1, -2^c), of norm just over 2^c;
    # B = 2^64*sqrt(2) admits c = 63 and refuses c = 65
    def run(c):
        return rs.lindep([FixedReal.from_rational(Fraction(1), 256),
                          FixedReal.from_rational(Fraction(1, 2 ** c), 256)],
                         64)

    assert run(63) == [1, -2 ** 63]
    with caplog.at_level(logging.WARNING, logger="logseries.relsearch"):
        assert run(65) is None
    # within sqrt(1 + 4n) of B the basis cannot exclude it: undecided
    assert [r.getMessage() for r in caplog.records] == [
        "undecided: no relation accepted, but one with coefficient "
        "norm <= 2^64*sqrt(2) is not excluded"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="logseries.relsearch"):
        assert run(67) is None
    assert not caplog.records


def test_lindep_recovers_planted_relations():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(3, 7)
        u = [rng.randint(1 - 2 ** 20, 2 ** 20 - 1) for _ in range(n)]
        u[0] = u[0] or 1
        # mantissas m with sum(u_j m_j) = 0 exactly, 37 bits below the
        # precision lindep needs so that cutting them is exercised too
        bits = 64 * n + 64 + 37
        rest = [rng.choice((-1, 1)) * rng.getrandbits(bits)
                for _ in range(n - 1)]
        mantissas = ([-sum(c * m for c, m in zip(u[1:], rest))]
                     + [u[0] * m for m in rest])
        g = gcd(*u)
        want = [c // g for c in u]
        got = rs.lindep([FixedReal(m, bits) for m in mantissas], 64)
        assert got in (want, [-c for c in want])


def _gram_schmidt(rows):
    """Reference Gram-Schmidt in rationals: (b* vectors, mu rows)."""
    stars, mu = [], []
    for row in rows:
        v = [Fraction(x) for x in row]
        coeffs = []
        for s in stars:
            m = sum(x * y for x, y in zip(row, s)) / sum(y * y for y in s)
            coeffs.append(m)
            v = [a - m * c for a, c in zip(v, s)]
        stars.append(v)
        mu.append(coeffs)
    return stars, mu


def _det(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_lll_reduce_gives_a_reduced_basis_of_the_same_lattice():
    rng = random.Random(5)
    # rows (e_j | x_j) with x_j of one to three random entries: the
    # leading n entries of a reduced row are its transform
    bases = [[[int(i == j) for j in range(n)]
              + [rng.randint(-2 ** bits, 2 ** bits) for _ in range(m)]
              for i in range(n)]
             for n, m, bits in ((2, 1, 40), (3, 2, 40), (4, 1, 200),
                                (5, 3, 60), (6, 2, 80))]
    for basis in bases:
        rows, d = rs.lll_reduce(basis)
        t = [row[:len(basis)] for row in rows]
        assert all(sum(c * b[i] for c, b in zip(tr, basis)) == row[i]
                   for tr, row in zip(t, rows) for i in range(len(row)))
        assert abs(_det(t)) == 1
        stars, mu = _gram_schmidt(rows)
        norms = [sum(x * x for x in s) for s in stars]
        for i in range(len(rows)):
            assert d[i + 1] == d[i] * norms[i]
            assert all(abs(m) <= Fraction(1, 2) for m in mu[i])
            if i:
                assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) \
                    * norms[i - 1]
    with pytest.raises(ValueError, match="dependent"):
        rs.lll_reduce([[1, 2], [2, 4]])


# ----------------------------------------------------------------------
#  Search
# ----------------------------------------------------------------------

def _count_lindep(monkeypatch):
    """Record every lindep result while the test runs. A forked child's
    calls would never reach this list, so the search stays in one
    process; test_two_processes_give_the_serial_verdicts covers the
    other path."""
    monkeypatch.setattr(binsplit, "_usable_cpus", lambda: 1)
    results, lindep = [], rs.lindep

    def counting(values, max_coeff_bits):
        results.append(lindep(values, max_coeff_bits))
        return results[-1]

    monkeypatch.setattr(rs, "lindep", counting)
    return results


@pytest.fixture(scope="module")
def log3_search():
    target = _log_fixed(3, 200, 660)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-8, 0),),
                                  cost_bound=2.0)
    return rs.search(_m2a(), target, 1, strategy)


@pytest.fixture(scope="module")
def log2_search():
    target = _log_fixed(2, 200, 660)
    strategy = rs.LatticeStrategy(primes=(2, 3),
                                  exponent_bounds=((-6, 0), (-6, 0)),
                                  cost_bound=2.0)
    return rs.search(_m2a(), target, 1, strategy)


def test_search_rediscovers_the_log3_series(log3_search):
    assert [c.rho for c in log3_search] == [Fraction(1, 243)]
    cand = log3_search[0]
    assert cand.coefficients == (1, -14, 88)
    assert abs(cand.cost - 1.4564) < 1e-4


def test_search_rediscovers_the_log2_series(log2_search):
    assert [c.rho for c in log2_search] == [Fraction(1, 3888)]
    cand = log2_search[0]
    assert cand.coefficients == (2, -297, 1794)
    assert abs(cand.cost - 0.9679) < 1e-4


def test_log3_box_misses_are_proved(monkeypatch, caplog):
    results = _count_lindep(monkeypatch)
    target = _log_fixed(3, 200, 660)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-8, 0),),
                                  cost_bound=2.0)
    with caplog.at_level(logging.WARNING, logger="logseries.relsearch"):
        found = rs.search(_m2a(), target, 1, strategy)
    assert [c.rho for c in found] == [Fraction(1, 243)]
    assert len(results) == 10
    assert sum(r is not None for r in results) == 1
    assert not caplog.records


def test_candidate_residual_meets_the_detection_bound(log3_search):
    wd = 60  # the 20*(h+2) floor used by this strategy
    assert abs(log3_search[0].residual.to_fraction()) < Fraction(1, 10 ** (wd // 2))


def test_candidate_series_matches_the_catalog(log3_search, log2_search):
    from logseries import binsplit
    _, got = binsplit.cross_verify(log3_search[0].series,
                                   catalog_get("log3-eq8a"), 60)
    assert got >= 60
    _, got = binsplit.cross_verify(log2_search[0].series,
                                   catalog_get("log2-eq8"), 60)
    assert got >= 60


# label: (primes, exponent ranges, rate, (beta, alpha_0, ..., alpha_3))
DEGREE4_BOXES = {
    "log2-eq9": ((2, 3, 5), ((-4, 0), (-3, 0), (-5, 0)), Fraction(1, 1350000),
                 (2, -295245, 4353342, -15397068, 13885704)),
    "log2-eq11": ((2, 3, 5), ((-4, 0), (-2, 0), (-5, 0)), Fraction(1, 450000),
                  (4, -81891, 1209726, -4300512, 3927264)),
    "log2-eq13": ((2, 3), ((-13, 0), (-3, 0)), Fraction(1, 221184),
                  (3, -13858, 223397, -742257, 686430)),
}


@pytest.mark.parametrize("label", sorted(DEGREE4_BOXES))
def test_search_rediscovers_a_degree4_series(label):
    from logseries import binsplit
    primes, bounds, rho, coefficients = DEGREE4_BOXES[label]
    spec = catalog_get(label)
    strategy = rs.LatticeStrategy(primes=primes, exponent_bounds=bounds,
                                  cost_bound=2.0)
    found = rs.search(spec.motive, _log_fixed(2, 400, 1300), 1, strategy)
    assert [(c.rho, c.coefficients) for c in found] == [(rho, coefficients)]
    assert binsplit.cross_verify(found[0].series, spec, 60)[1] >= 60


def test_search_rediscovers_a_degree6_series(monkeypatch):
    from logseries import binsplit
    results = _count_lindep(monkeypatch)
    spec = catalog_get("log2-eq18")
    strategy = rs.LatticeStrategy(primes=(2, 3, 7),
                                  exponent_bounds=((-4, 0), (-3, 0), (-7, 0)),
                                  cost_bound=2.0)
    found = rs.search(spec.motive, _log_fixed(2, 400, 1300), 1, strategy)
    coefficients = (4, -226846575, 5510613042, -40884797604, 126495134424,
                    -169950180480, 81969540480)
    assert [(c.rho, c.coefficients) for c in found] == \
        [(Fraction(1, 355770576), coefficients)]
    assert binsplit.cross_verify(found[0].series, spec, 60)[1] >= 60
    # the norm bound lets no lattice noise through at the other points
    assert len(results) == 114
    assert sum(r is not None for r in results) <= 1


def test_the_precision_floor_follows_coeff_bits(monkeypatch):
    # 3 values at 80 coefficient bits need 3*80 + 64 = 304 shared bits;
    # a floor of 3*64 + 64 = 256 made lindep refuse
    monkeypatch.setattr(rs, "COEFF_BITS", 80)
    assert rs.working_precision(1, 0) == (60, 304, 624)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-5, -5),))
    found = rs.search(_m2a(), _log_fixed(3, 200, 660), 1, strategy)
    assert [(c.rho, c.coefficients) for c in found] == \
        [(Fraction(1, 243), (1, -14, 88))]


def test_search_with_unreachable_rho_bound_is_empty():
    # the only lattice rate is 2^0 = 1, at or above RHO_BOUND: an empty
    # result would claim an absence that no lattice point was tried for
    target = _log_fixed(3, 200, 660)
    strategy = rs.LatticeStrategy(primes=(2,), exponent_bounds=((0, 0),))
    with pytest.raises(ValueError, match="no lattice rate passed the filters"):
        rs.search(_m2a(), target, 1, strategy)


def test_search_with_no_primes_is_empty():
    target = _log_fixed(3, 200, 660)
    strategy = rs.LatticeStrategy(primes=(), exponent_bounds=())
    with pytest.raises(ValueError, match="no lattice rate passed the filters"):
        rs.search(_m2a(), target, 1, strategy)


def test_search_names_the_cost_bound_when_it_empties_the_box():
    # 1/3 passes the rate filter, but its cost 4*2/log 3 = 7.3 is above 2
    target = _log_fixed(3, 200, 660)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-1, -1),),
                                  cost_bound=2.0)
    with pytest.raises(ValueError, match="cost at most 2.0"):
        rs.search(_m2a(), target, 1, strategy)


def test_search_refuses_a_target_too_short():
    target = _log_fixed(3, 60, 200)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-8, 0),))
    with pytest.raises(ValueError, match="target carries 200 bits but "
                                         "confirmation needs"):
        rs.search(_m2a(), target, 1, strategy)


def test_search_refuses_a_zero_target():
    zero = FixedReal.from_rational(Fraction(0), 660)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-8, 0),))
    with pytest.raises(ValueError, match="^the target is 0, so every "
                                         "lattice point has the trivial"):
        rs.search(_m2a(), zero, 1, strategy)


def test_search_rejects_incomplete_motives():
    lopsided = Motive((Fraction(1), Fraction(1, 6)),
                      (Fraction(1, 4), Fraction(3, 4)), Fraction(1, 2))
    target = _log_fixed(3, 200, 660)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-8, 0),))
    with pytest.raises(ValueError, match="complete"):
        rs.search(lopsided, target, 1, strategy)


def test_search_rejects_excess_weight():
    target = _log_fixed(3, 200, 660)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-8, 0),))
    with pytest.raises(ValueError, match="weight"):
        rs.search(_m2a(), target, 3, strategy)


# ----------------------------------------------------------------------
#  Lattice points in two processes
# ----------------------------------------------------------------------

def _box(name):
    """(motive, target, strategy, COEFF_BITS) of a named search box. At
    5 and 9 coefficient bits the log 3 and log 2 boxes each leave one
    point undecided: point 6, in this process's share, and point 28, in
    the child's."""
    log3 = (_m2a(), _log_fixed(3, 200, 660),
            rs.LatticeStrategy((3,), ((-8, 0),), cost_bound=2.0))
    log2 = (_m2a(), _log_fixed(2, 200, 660),
            rs.LatticeStrategy((2, 3), ((-6, 0), (-6, 0)), cost_bound=2.0))
    primes, bounds = DEGREE4_BOXES["log2-eq13"][:2]
    eq13 = (catalog_get("log2-eq13").motive, _log_fixed(2, 400, 1300),
            rs.LatticeStrategy(primes, bounds, cost_bound=2.0))
    return {"log3": log3 + (64,), "log3-undecided": log3 + (5,),
            "log2": log2 + (64,), "log2-undecided": log2 + (9,),
            "log2-eq13": eq13 + (64,)}[name]


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks, and checks that none is left unreaped."""
    count, real_fork = [], os.fork

    def fork():
        count.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    yield count
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_search(monkeypatch, caplog, cpus, name):
    """(candidates, per-point verdicts, log records) of a search of box
    `name` with `cpus` usable CPUs."""
    motive, target, strategy, coeff_bits = _box(name)
    verdicts, real = [], rs._verdicts

    def recording(*args):
        verdicts.extend(real(*args))
        return verdicts

    caplog.clear()
    with monkeypatch.context() as patch, \
            caplog.at_level(logging.DEBUG, logger="logseries.relsearch"):
        patch.setattr(binsplit, "_usable_cpus", lambda: cpus)
        patch.setattr(rs, "COEFF_BITS", coeff_bits)
        patch.setattr(rs, "_verdicts", recording)
        found = rs.search(motive, target, 1, strategy)
    records = [(r.levelname, r.getMessage()) for r in caplog.records]
    return ([(c.rho, c.coefficients, c.cost, c.residual, c.series)
             for c in found], verdicts, records)


@pytest.mark.parametrize("name", ["log3", "log3-undecided", "log2",
                                  "log2-undecided", "log2-eq13"])
def test_two_processes_give_the_serial_verdicts(name, forks, monkeypatch,
                                                caplog):
    monkeypatch.setattr(rs, "FORK_POINTS", 2)
    serial = _run_search(monkeypatch, caplog, 1, name)
    assert forks == []
    assert _run_search(monkeypatch, caplog, 2, name) == serial
    assert len(forks) == 1
    undecided = [i for i, verdict in enumerate(serial[1]) if verdict[1]]
    assert undecided == {"log3-undecided": [6],
                         "log2-undecided": [28]}.get(name, [])
    warning = rs.UNDECIDED % rs.norm_bound_text(3, _box(name)[3])
    assert [m for level, m in serial[2] if level == "WARNING"] == \
        [warning] * len(undecided)


@pytest.mark.parametrize("name", ["log3", "log3-undecided", "log2",
                                  "log2-undecided", "log2-eq13"])
def test_detection_grade_sums_give_the_confirmation_grade_verdicts(
        name, monkeypatch, caplog):
    # per point (u, undecided), the sums sent and every candidate and
    # warning, with every sum at the confirmation grade instead
    coarse = _run_search(monkeypatch, caplog, 1, name)
    tail_bits = rs._tail_bits
    monkeypatch.setattr(rs, "_tail_bits",
                        lambda h, bits: (tail_bits(h, bits)[1],) * 2)
    assert _run_search(monkeypatch, caplog, 1, name) == coarse


@pytest.mark.parametrize("name", ["log3", "log2", "log2-eq13"])
def test_confirmation_grade_sums_are_built_only_at_detections(name,
                                                              monkeypatch):
    results = _count_lindep(monkeypatch)
    grades, certified = [], binsplit.certified_range

    def recording(spec, bits):
        grades.append(bits)
        return certified(spec, bits)

    monkeypatch.setattr(binsplit, "certified_range", recording)
    motive, target, strategy, _ = _box(name)
    h = motive.d - 1
    rs.search(motive, target, 1, strategy)
    detect, confirm = rs._tail_bits(
        h, rs.working_precision(h, strategy.working_digits)[1])
    hits = sum(r is not None for r in results)
    assert hits >= 1
    assert sorted(grades) == sorted([detect] * len(results) * (h + 1)
                                    + [confirm] * hits * (h + 1))
    assert detect < confirm


def test_a_small_box_forks_nothing(forks, monkeypatch):
    monkeypatch.setattr(binsplit, "_usable_cpus", lambda: 2)
    strategy = rs.LatticeStrategy(primes=(3,), exponent_bounds=((-5, -5),))
    found = rs.search(_m2a(), _log_fixed(3, 200, 660), 1, strategy)
    assert [c.rho for c in found] == [Fraction(1, 243)]
    assert rs.FORK_POINTS > 2
    assert forks == []


def test_one_cpu_or_a_second_thread_forks_nothing(forks, monkeypatch):
    monkeypatch.setattr(rs, "FORK_POINTS", 2)
    motive, target, strategy, _ = _box("log3")
    monkeypatch.setattr(binsplit, "_usable_cpus", lambda: 1)
    want = rs.search(motive, target, 1, strategy)
    monkeypatch.setattr(binsplit, "_usable_cpus", lambda: 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert rs.search(motive, target, 1, strategy) == want
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()
    assert forks == []


def _fail_in_child(monkeypatch, fail):
    """Forces the two-process path on the log 3 box (10 points, 5 in the
    child), with the child's detection calling `fail` instead."""
    parent, real = os.getpid(), rs._detect
    monkeypatch.setattr(binsplit, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rs, "FORK_POINTS", 2)
    monkeypatch.setattr(rs, "_detect", lambda *args: (
        fail() if os.getpid() != parent else real(*args)))
    return _box("log3")[:3]


def test_a_dead_child_is_reported_with_its_exit_status(forks, monkeypatch):
    motive, target, strategy = _fail_in_child(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError) as info:
        rs.search(motive, target, 1, strategy)
    assert str(info.value) == ("the process examining 5 lattice points "
                               "ended with exit status 3 before sending its "
                               "verdicts")
    assert len(forks) == 1


def test_a_value_error_in_the_child_keeps_its_message(forks, monkeypatch):
    def fail():
        raise ValueError("1 values at 64 coefficient bits need 128 shared "
                         "bits, have 8")

    motive, target, strategy = _fail_in_child(monkeypatch, fail)
    with pytest.raises(ValueError, match="^1 values at 64 coefficient bits "
                                         "need 128 shared bits, have 8$"):
        rs.search(motive, target, 1, strategy)
    assert len(forks) == 1


def test_a_failure_here_kills_and_reaps_the_child(forks, monkeypatch):
    parent, real = os.getpid(), rs._detect

    def detect(*args):
        if os.getpid() == parent:
            raise ValueError("this share failed")
        time.sleep(60)  # still running when this process fails
        return real(*args)

    monkeypatch.setattr(binsplit, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rs, "FORK_POINTS", 2)
    monkeypatch.setattr(rs, "_detect", detect)
    motive, target, strategy, _ = _box("log3")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^this share failed$"):
        rs.search(motive, target, 1, strategy)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1


# ----------------------------------------------------------------------
#  Types and report
# ----------------------------------------------------------------------

def test_strategy_validation():
    with pytest.raises(ValueError, match="distinct"):
        rs.LatticeStrategy(primes=(3, 3), exponent_bounds=((-1, 0), (-1, 0)))
    with pytest.raises(ValueError, match="> 1"):
        rs.LatticeStrategy(primes=(1,), exponent_bounds=((-1, 0),))
    with pytest.raises(ValueError, match="per prime"):
        rs.LatticeStrategy(primes=(2, 3), exponent_bounds=((-1, 0),))
    with pytest.raises(ValueError, match="min <= max"):
        rs.LatticeStrategy(primes=(2,), exponent_bounds=((0, -1),))


def test_strategy_takes_primes_only():
    # Carmichael numbers (5148001 passes each base if a 1 may follow a
    # value other than -1 in the squaring chain), strong pseudoprimes to
    # the bases 2..7 and 2..31, and a product of two Mersenne primes
    for n in (4, 9, 561, 5148001, 3215031751, 3825123056546413051,
              (2 ** 61 - 1) * (2 ** 31 - 1)):
        with pytest.raises(ValueError, match=f"prime; {n} is not"):
            rs.LatticeStrategy(primes=(2, n), exponent_bounds=((-1, 0),) * 2)
    for p in (2, 3, 37, 41, 7919, 2 ** 61 - 1, 2 ** 127 - 1):
        assert rs.LatticeStrategy(primes=(p,), exponent_bounds=((-1, 0),)).primes == (p,)


def test_candidate_validation(log3_search):
    good = log3_search[0]
    with pytest.raises(ValueError, match="beta"):
        rs.RelationCandidate(coefficients=(0, -14, 88), rho=good.rho,
                             cost=good.cost, residual=good.residual,
                             series=good.series)
    with pytest.raises(ValueError, match="leading"):
        rs.RelationCandidate(coefficients=(1, -14, 0), rho=good.rho,
                             cost=good.cost, residual=good.residual,
                             series=good.series)
    with pytest.raises(ValueError, match="rho"):
        rs.RelationCandidate(coefficients=good.coefficients, rho=Fraction(2),
                             cost=good.cost, residual=good.residual,
                             series=good.series)


def test_report_block_fields(log3_search):
    text = rs.format_report(log3_search, args_text="primes {3}",
                            const_text="1.0986")
    assert " args  = primes {3}" in text
    assert " const = 1.0986" in text
    assert " hgm_1 = [[1, 1/2], [1/6, 5/6]]" in text
    assert " LINEAR DEPENDENCE FOUND" in text
    assert " [-1, 88, -14]" in text
    assert " rho_1 = 1/243" in text
    assert " BSC   = 1.4563" in text


def test_empty_report_is_empty():
    assert rs.format_report([]) == ""
