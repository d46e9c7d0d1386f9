"""Self-tests of the benchmark: checkers, failure counting, the tracer and
the metric lists. Run with `python3 -m pytest bench`; none of them runs
a workload.
"""

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import kendall_tau  # noqa: E402
from workloads import WORKLOADS, Job, compute_digits  # noqa: E402

DIGITS_OUT = ("# log(2) digits=20 series=log2-eq8\n"
              "0.6931471805 5994530941\n"
              "# verified against log2-eq9: first 21 digits agree\n")
DIGITS_REF = "0.69314718055994530941"

WZ_OUT = "\n".join(
    f"{label}: telescoping exact on the 21x21 grid (441 points); "
    f"92-term sum matches log({p}) to >= 45 digits: yes"
    for label, p in [("log2-s2t1", 2), ("log2-s1t2", 2), ("log3-s2t1", 3),
                     ("log3-s1t2", 3), ("log5-s2t1+i", 5), ("log5-s1t2+i", 5),
                     ("log5-s2t1-i", 5), ("log5-s1t2-i", 5)]) + "\n"

PROVE_OUT = ("# log(7) as a beta-type integral, digits=45\n"
             "|integral - log(7)| = 6.12e-56\nPASS\n")

SEARCH_OUT = """*********************
 args  = p=3 primes=3 exponents=-8:0 digits=200
 const = log(3) = 1.09861228866810969139524523692252570464...
 hgm_1 = [[1, 1/2], [1/6, 5/6]]
 LINEAR DEPENDENCE FOUND
 [-1, 88, -14]
 rho_1 = 1/243
 BSC   = 1.4563828
*********************
"""

ALT_OUT = """#  p    m   rho              (a, b, c)                r               phi
   5   -1   -1/675           (728, 604, 75)           1.414213562373  0.785398163397
  10  -15   -1/80            (1134, 927, 80)          2.449489742783  0.911738290968
  21   -3   -256/3969        (8840, 6940, 441)        4.000000000000  1.047197551196
  56   -7   -15625/48384     (179630, 126775, 5376)   7.071067811865  1.209429202888
"""


def _result(out, code=0, error=None):
    return {"code": code, "out": out, "err": "", "error": error,
            "start": 0.0, "end": 1.0}


def _job(argv):
    """The workload job whose command line starts with `argv`."""
    for workload in WORKLOADS.values():
        for job in workload.build(0)[0]:
            if job.argv[:len(argv)] == tuple(argv):
                return job
    raise LookupError(argv)


# ----------------------------------------------------------------------
#  good outputs pass, corrupted outputs are counted as failures
# ----------------------------------------------------------------------

def test_digit_checker():
    assert checks.check_digits(DIGITS_OUT, DIGITS_REF, 20) is None
    assert checks.check_digits(DIGITS_OUT.replace("5994", "5995"),
                               DIGITS_REF, 20) is not None
    assert checks.check_digits(DIGITS_OUT.replace(" 5994530941", ""),
                               DIGITS_REF, 20) is not None
    assert checks.check_digits(DIGITS_OUT.replace("first 21", "first 19"),
                               DIGITS_REF, 20) is not None
    assert checks.check_digits(DIGITS_OUT.splitlines()[0] + "\n"
                               + DIGITS_OUT.splitlines()[1],
                               DIGITS_REF, 20) is not None


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace("exact", "FAILED", 1),
    lambda t: t.replace("yes", "NO", 1),
    lambda t: "\n".join(t.splitlines()[:-1]),
    lambda t: t + "traceback follows\n",
])
def test_wz_checker(corrupt):
    assert checks.check_wz_verdicts(WZ_OUT, 8) is None
    assert checks.check_wz_verdicts(corrupt(WZ_OUT), 8) is not None


def test_pass_checker():
    assert checks.check_pass_verdict(PROVE_OUT) is None
    assert checks.check_pass_verdict(PROVE_OUT.replace("PASS", "FAIL")) is not None
    assert checks.check_pass_verdict(PROVE_OUT.replace("PASS\n", "")) is not None
    assert checks.check_pass_verdict("") is not None


def test_relation_checker():
    want = [(Fraction(1, 243), (1, -14, 88))]
    assert checks.parse_relations(SEARCH_OUT) == want
    assert checks.check_relations(SEARCH_OUT, want) is None
    assert checks.check_relations(SEARCH_OUT.replace("88", "89"), want) is not None
    assert checks.check_relations(SEARCH_OUT.replace("1/243", "1/729"),
                                  want) is not None
    assert checks.check_relations(SEARCH_OUT.replace(" [-1, 88, -14]", ""),
                                  want) is not None
    assert checks.check_relations("no integer relations found for log(3)",
                                  want) is not None


def test_alternating_checker():
    hits = (5, 10, 21, 56)
    assert checks.check_alternating_hits(ALT_OUT, hits) is None
    lines = ALT_OUT.splitlines()
    assert checks.check_alternating_hits("\n".join(lines[:-1]), hits) is not None
    assert checks.check_alternating_hits(ALT_OUT + lines[1] + "\n", hits) is not None
    assert checks.check_alternating_hits(
        lines[0] + "\n(no alternating series with a rational rate)",
        hits) is not None


@pytest.mark.parametrize("argv, good, oracle", [
    (("wz-verify",), WZ_OUT, None),
    (("prove", "--p", "7", "--method", "integral"), PROVE_OUT, None),
    (("alternating",), ALT_OUT, None),
    (("search", "--p", "3"), SEARCH_OUT, None),
    (("family", "--method", "d6", "--p", "5/2"),
     "# log(5/2) digits=60 series=log(5/2)-d6\n0.9162907318",
     "0.9162907318"),
])
def test_judge_counts_each_kind_of_failure(argv, good, oracle):
    job = _job(argv)
    oracles = {job.oracle: oracle}
    assert run.judge(job, _result(good), oracles) is None
    assert run.judge(job, _result(good, code=1), oracles) is not None
    assert run.judge(job, _result("", code=None, error="Traceback\nBoom: x"),
                     oracles) is not None
    assert run.judge(job, _result(""), oracles) is not None


def test_judge_survives_a_checker_that_raises():
    def broken(text, oracle):
        raise IndexError("checker bug")
    job = Job(argv=("prove",), check=broken)
    assert "checker raised" in run.judge(job, _result("PASS"), {})


# ----------------------------------------------------------------------
#  workloads and seeds
# ----------------------------------------------------------------------

def test_seed_fixes_the_inputs():
    for workload in WORKLOADS.values():
        a, b = workload.build(7)[0], workload.build(7)[0]
        assert [j.argv for j in a] == [j.argv for j in b]
    digits = {compute_digits(seed) for seed in range(50)}
    assert len(digits) > 1
    assert all(99_000 <= d <= 101_000 for d in digits)
    orders = {tuple(j.argv for j in WORKLOADS["verify-suite"].build(s)[0])
              for s in range(5)}
    assert len(orders) > 1
    search = {tuple(j.argv for j in WORKLOADS["search-box"].build(s)[0])
              for s in range(5)}
    assert len(search) == 1 and not WORKLOADS["search-box"].seeded


def test_verify_suite_job_counts():
    jobs = WORKLOADS["verify-suite"].build(0)[0]
    kinds = [j.subcommand for j in jobs]
    assert kinds.count("family") == 76
    assert kinds.count("prove") == 10
    assert kinds.count("wz-verify") == kinds.count("alternating") == 1


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


# ----------------------------------------------------------------------
#  tracer
# ----------------------------------------------------------------------

def _fake_module():
    mod = types.ModuleType("pkg.fake")
    exec("def leaf(n):\n    return n\n"
         "def outer(n):\n    return leaf(n) if n <= 0 else outer(n - 1)\n"
         "def _private():\n    return 1\n", mod.__dict__)
    mod.leaf.__module__ = mod.outer.__module__ = "pkg.fake"
    mod.TABLE = {"x": mod.leaf}
    return mod


def test_tracer_spans_self_time_and_restore():
    mod = _fake_module()
    original_leaf, original_outer = mod.leaf, mod.outer
    calls = []
    tracer = Tracer({"fake.leaf": lambda c, args, r: calls.append(args["n"])})
    tracer.install([mod])
    assert mod.TABLE["x"] is not original_leaf
    mod.outer(2)
    mod.TABLE["x"](5)
    tracer.uninstall()
    assert mod.leaf is original_leaf and mod.outer is original_outer
    assert mod.TABLE["x"] is original_leaf
    totals = tracer.totals()
    assert totals["fake.outer"]["calls"] == 3
    assert totals["fake.leaf"]["calls"] == 2
    assert "fake._private" not in totals
    assert calls == [0, 5]
    # recursion: only the outermost outer() counts toward inclusive time
    outer_spans = [s for s in tracer.spans if s[3] == "fake.outer"]
    assert totals["fake.outer"]["s"] == pytest.approx(
        outer_spans[0][5] - outer_spans[0][4])
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(
        sum(s[5] - s[4] for s in tracer.spans if s[2] == -1))


def test_tracer_counts_observer_errors_without_failing_the_call():
    mod = _fake_module()
    tracer = Tracer({"fake.leaf": lambda c, args, r: args["missing"]})
    tracer.install([mod])
    try:
        assert mod.leaf(3) == 3
    finally:
        tracer.uninstall()
    assert tracer.counters["trace.observer_errors"] == 1


def test_kendall_tau():
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert kendall_tau([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)
