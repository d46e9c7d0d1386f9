"""CLI surface: exit codes, output shapes, file writing.

Every invocation goes through cli.run, which must return an int and
never raise; 0 success, 1 computational failure, 2 usage error. The one
exception is a closed stdout, which cli.main silences.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import logseries
from logseries import altseries, binsplit, cli, machin, wzcert


def invoke(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digits_from_rows(text):
    rows = [line for line in text.splitlines()
            if line and not line.startswith("#")]
    return "".join(rows).replace(" ", "")


# ----------------------------------------------------------------------
#  compute
# ----------------------------------------------------------------------

def test_compute_digits_match_oracle(capsys):
    code, out, _ = invoke(capsys, ["compute", "--p", "2", "--digits", "120"])
    assert code == 0
    assert digits_from_rows(out) == machin.log_decimal(2, 120)


def test_compute_picks_cheapest_series(capsys):
    code, out, _ = invoke(capsys, ["compute", "--p", "3", "--digits", "40"])
    assert code == 0
    assert "series=log3-eq8a" in out


def test_compute_verification_line(capsys):
    code, out, _ = invoke(capsys, ["compute", "--p", "2", "--digits", "150",
                                   "--verify", "log2-eq11"])
    assert code == 0
    assert "# verified against log2-eq11" in out
    assert "digits agree" in out


def test_compute_verify_evaluates_each_series_once(capsys, monkeypatch,
                                                  tmp_path):
    # the check series may run in a child process, so the calls are
    # counted in a file both processes append to
    log = tmp_path / "calls"
    real = binsplit.evaluate

    def evaluate(spec, digits):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(spec.label + "\n")
        return real(spec, digits)

    monkeypatch.setattr(binsplit, "evaluate", evaluate)
    code, out, _ = invoke(capsys, ["compute", "--p", "2", "--digits", "200",
                                   "--series", "log2-eq8",
                                   "--verify", "log2-eq9"])
    assert code == 0
    assert "# verified against log2-eq9" in out
    calls = log.read_text(encoding="utf-8").split()
    assert sorted(calls) == ["log2-eq8", "log2-eq9"]


def test_compute_verify_dead_check_process_is_an_error(capsys, monkeypatch):
    real = binsplit.evaluate
    monkeypatch.setattr(binsplit, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(binsplit, "evaluate", lambda spec, digits: (
        os._exit(3) if spec.label == "log2-eq9" else real(spec, digits)))
    code, out, err = invoke(capsys, ["compute", "--p", "2", "--digits", "50",
                                     "--series", "log2-eq8",
                                     "--verify", "log2-eq9"])
    assert (code, out) == (1, "")
    assert err == ("error: the process evaluating log2-eq9 ended with exit "
                   "status 3 before sending its digits\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _evaluate_must_not_run(monkeypatch):
    def refuse(spec, digits):
        raise AssertionError(f"evaluated {spec.label}")
    monkeypatch.setattr(binsplit, "evaluate", refuse)


def test_compute_verify_label_checked_before_evaluation(capsys, monkeypatch):
    _evaluate_must_not_run(monkeypatch)
    code, out, err = invoke(capsys, ["compute", "--digits", "50",
                                     "--series", "log2-eq8",
                                     "--verify", "log3-eq8a"])
    assert (code, out) == (2, "")
    assert err == "usage error: series log3-eq8a does not compute log(2)\n"
    code, out, err = invoke(capsys, ["compute", "--p", "2", "--digits", "50",
                                     "--series", "log2-eq8",
                                     "--verify", "log2-eq8"])
    assert (code, out) == (2, "")
    assert "names the series being computed" in err


def test_compute_unknown_verify_label(capsys, monkeypatch):
    _evaluate_must_not_run(monkeypatch)
    code, out, err = invoke(capsys, ["compute", "--p", "2", "--digits", "50",
                                     "--verify", "log2-nope"])
    unknown_series = cli.run(["compute", "--series", "log2-nope",
                              "--digits", "50"])
    assert (code, out) == (unknown_series, "")
    assert "unknown series label 'log2-nope'" in err


def test_compute_zero_digits_is_usage_error(capsys):
    code, _, err = invoke(capsys, ["compute", "--p", "2", "--digits", "0"])
    assert code == 2
    assert "digits" in err


def test_compute_needs_a_target(capsys):
    code, _, err = invoke(capsys, ["compute", "--digits", "50"])
    assert code == 2
    assert "--p or --series" in err


def test_compute_series_target_mismatch(capsys):
    code, _, err = invoke(capsys, ["compute", "--p", "2", "--digits", "40",
                                   "--series", "log3-eq8a"])
    assert code == 2
    assert "does not compute log(2)" in err


def test_compute_unknown_series(capsys):
    code, _, err = invoke(capsys, ["compute", "--series", "log2-nope",
                                   "--digits", "40"])
    assert code == 1
    assert "unknown series" in err


def test_compute_writes_out_file(capsys, tmp_path):
    path = tmp_path / "digits.txt"
    code, out, _ = invoke(capsys, ["compute", "--p", "2", "--digits", "60",
                                   "--out", str(path)])
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert digits_from_rows(text) == machin.log_decimal(2, 60)


def test_compute_unwritable_out_file_names_path_and_reason(capsys, tmp_path):
    path = tmp_path / "missing" / "digits.txt"
    code, out, err = invoke(capsys, ["compute", "--p", "2", "--digits", "10",
                                     "--out", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


# ----------------------------------------------------------------------
#  catalog and cost
# ----------------------------------------------------------------------

def test_catalog_is_json(capsys):
    code, out, _ = invoke(capsys, ["catalog"])
    assert code == 0
    rows = json.loads(out)
    assert {row["label"] for row in rows} >= {"log2-eq8", "log2-eq18",
                                              "log10-tableI"}


def test_cost_table_all(capsys):
    code, out, _ = invoke(capsys, ["cost", "--all"])
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(lines) == 10
    table = dict(line.split() for line in lines)
    assert table["log2-eq8"] == "0.9679"
    assert table["log3-eq8a"] == "1.4564"
    assert table["log2-eq18"] == "1.2189"


def test_cost_single_series(capsys):
    code, out, _ = invoke(capsys, ["cost", "--series", "log5-eq8b"])
    assert code == 0
    assert "1.2280" in out


def test_cost_requires_exactly_one_selector(capsys):
    assert invoke(capsys, ["cost"])[0] == 2
    assert invoke(capsys, ["cost", "--all", "--series", "log2-eq8"])[0] == 2


# ----------------------------------------------------------------------
#  parser basics
# ----------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert invoke(capsys, [])[0] == 2


def test_unknown_command_is_usage_error(capsys):
    assert invoke(capsys, ["frobnicate"])[0] == 2


def test_help_exits_zero(capsys):
    assert invoke(capsys, ["--help"])[0] == 0


def test_run_reuses_the_parser_built_at_import(capsys, monkeypatch):
    def rebuild():
        raise AssertionError("cli.run built a second parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    assert invoke(capsys, ["compute", "--p", "2"])[0] == 2
    code, out, err = invoke(capsys, ["cost", "--series", "log2-eq8"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("log2-eq8")
    assert invoke(capsys, ["cost"]) == (
        2, "", "usage error: cost needs exactly one of --series or --all\n")


# ----------------------------------------------------------------------
#  search
# ----------------------------------------------------------------------

def test_search_rediscovers_log3_series(capsys):
    code, out, _ = invoke(capsys, ["search", "--p", "3", "--primes", "3",
                                   "--exponents=-6:0", "--digits", "60"])
    assert code == 0
    assert "LINEAR DEPENDENCE FOUND" in out
    assert "[-1, 88, -14]" in out
    assert "rho_1 = 1/243" in out


# Both searches of the benchmark's search-box workload, as printed
# before their sums were sized by a tail bound.
SEARCH_BOX_OUTPUT = {
    "log2": (
        "*********************\n"
        " args  = p=2 primes=2,3 exponents=-8:0,-8:0 digits=200\n"
        " const = log(2) = 0.69314718055994530941723212145817656807...\n"
        " hgm_1 = [[1, 1/2], [1/6, 5/6]]\n"
        " LINEAR DEPENDENCE FOUND\n"
        " [-2, 1794, -297]\n"
        " rho_1 = 1/3888\n"
        " BSC   = 0.96786095\n"
        "*********************\n"),
    "log3": (
        "*********************\n"
        " args  = p=3 primes=3 exponents=-8:0 digits=200\n"
        " const = log(3) = 1.09861228866810969139524523692252570464...\n"
        " hgm_1 = [[1, 1/2], [1/6, 5/6]]\n"
        " LINEAR DEPENDENCE FOUND\n"
        " [-1, 88, -14]\n"
        " rho_1 = 1/243\n"
        " BSC   = 1.4563828\n"
        "*********************\n"),
}


def test_search_box_output_is_unchanged(capsys):
    assert invoke(capsys, ["search", "--p", "2", "--primes", "2,3",
                           "--exponents=-8:0,-8:0", "--digits", "200"])[:2] \
        == (0, SEARCH_BOX_OUTPUT["log2"])
    assert invoke(capsys, ["search", "--p", "3", "--primes", "3",
                           "--exponents=-8:0", "--digits", "200"])[:2] \
        == (0, SEARCH_BOX_OUTPUT["log3"])


def test_search_empty_box(capsys):
    code, out, _ = invoke(capsys, ["search", "--p", "3", "--primes", "3",
                                   "--exponents=-2:0", "--digits", "60"])
    assert code == 0
    assert "no integer relations found for log(3) with coefficient norm " \
        "<= 2^64*sqrt(3)" in out


def test_search_empty_box_is_recorded_in_the_report_file(capsys, tmp_path):
    path = tmp_path / "results.txt"
    line = ("no integer relations found for log(3) with coefficient norm "
            "<= 2^64*sqrt(3)\n")
    argv = ["search", "--p", "3", "--primes", "3", "--exponents=-2:0",
            "--digits", "60", "--out", str(path)]
    assert invoke(capsys, argv)[:2] == (0, line)
    assert invoke(capsys, argv)[:2] == (0, line)
    assert path.read_text(encoding="utf-8") == line + line


def test_search_box_without_an_admissible_rate_is_an_error(capsys):
    # the only rate, 2^0 = 1, is at or above RHO_BOUND: nothing is searched,
    # so no absence of relations may be reported
    code, out, err = invoke(capsys, ["search", "--p", "2", "--primes", "2",
                                     "--exponents=0:0", "--digits", "60"])
    assert code == 1
    assert out == ""
    assert err == "error: no lattice rate passed the filters (rate below 3/5)\n"


def test_search_for_log1_is_an_error(capsys):
    # log 1 = 0, and every lattice point has the trivial relation for
    # it: "nothing found" would be false
    code, out, err = invoke(capsys, ["search", "--p", "1", "--primes", "3",
                                     "--exponents=-5:-5"])
    assert (code, out) == (1, "")
    assert err == ("error: the target is 0, so every lattice point has the "
                   "trivial relation (1, 0, ..., 0)\n")


def test_search_refuses_a_composite_in_the_prime_list(capsys):
    # 9 would repeat rates: 3^-5, 3^-3 9^-1 and 3^-1 9^-2 are all 1/243
    code, out, err = invoke(capsys, ["search", "--p", "3", "--primes", "3,9",
                                     "--exponents=-5:-1,-2:0", "--digits", "200"])
    assert (code, out) == (1, "")
    assert err == "error: primes must be prime; 9 is not\n"


def test_search_reports_the_digits_it_ran_at(capsys, caplog):
    # 50 digits sit below the 20*(h+2) = 60 digit floor of a d = 2 motive
    code, out, _ = invoke(capsys, ["search", "--p", "3", "--primes", "3",
                                   "--exponents=-6:0", "--digits", "50"])
    assert code == 0
    assert "digits=60" in out
    floor_warnings = [r for r in caplog.records if "floor" in r.getMessage()]
    assert len(floor_warnings) == 1


def test_search_report_file_appends(capsys, tmp_path):
    path = tmp_path / "results.txt"
    argv = ["search", "--p", "3", "--primes", "3", "--exponents=-6:0",
            "--digits", "60", "--out", str(path)]
    assert invoke(capsys, argv)[0] == 0
    assert invoke(capsys, argv)[0] == 0
    text = path.read_text(encoding="utf-8")
    assert text.count("LINEAR DEPENDENCE FOUND") == 2


# ----------------------------------------------------------------------
#  wz-verify
# ----------------------------------------------------------------------

def test_wz_verify_filtered(capsys):
    code, out, _ = invoke(capsys, ["wz-verify", "--p", "5", "--grid", "6",
                                   "--digits", "25"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("log5-") for line in lines)
    assert all("telescoping exact" in line and ": yes" in line
               for line in lines)


# each row's proven term count at 45 digits: eq8 19, eq8a 28, eq8b 24
WZ_VERIFY_GRID_20 = "".join(
    f"{label}: telescoping exact on the 21x21 grid (441 points); "
    f"{terms}-term sum matches log({label[3]}) to >= 45 digits: yes\n"
    for label, terms in (("log2-s2t1", 19), ("log2-s1t2", 19),
                         ("log3-s2t1", 28), ("log3-s1t2", 28),
                         ("log5-s2t1+i", 24), ("log5-s1t2+i", 24),
                         ("log5-s2t1-i", 24), ("log5-s1t2-i", 24)))


def test_wz_verify_output_is_unchanged(capsys):
    assert invoke(capsys, ["wz-verify", "--grid", "20", "--digits", "45"]) \
        == (0, WZ_VERIFY_GRID_20, "")


def test_wz_verify_unknown_target(capsys):
    code, _, err = invoke(capsys, ["wz-verify", "--p", "7"])
    assert code == 1
    assert "no certificates" in err


def test_wz_verify_derives_only_the_selected_certificates(capsys):
    wzcert.certificate_get.cache_clear()
    code, out, _ = invoke(capsys, ["wz-verify", "--p", "3", "--grid", "2",
                                   "--digits", "10"])
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] \
        == ["log3-s2t1", "log3-s1t2"]
    assert wzcert.certificate_get.cache_info().misses == 2


# ----------------------------------------------------------------------
#  prove
# ----------------------------------------------------------------------

def test_prove_integral(capsys):
    code, out, err = invoke(capsys, ["prove", "--p", "2", "--digits", "35"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "# log(2) as a beta-type integral",
        "u coefficients: ['200', '-3', '3']",
        "v coefficients: ['576', '0', '-1', '1']",
        "antiderivative in t = sqrt(1-x): 2/3 log|t + 3| - 2/3 log|t - 3| "
        "+ 1/3 log|t^2 + 3t + 8| - 1/3 log|t^2 - 3t + 8|",
        "integral = 1 * log(2), exactly",
        "PASS",
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 10])
def test_prove_integral_perturbed_row_fails_by_name(capsys, monkeypatch, p):
    from logseries import seriesdef
    code, out, err = invoke(capsys, ["prove", "--p", str(p)])
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [f"integral = 1 * log({p}), exactly", "PASS"]
    row = seriesdef.d2_params(p)
    for name in "abc":
        for step in (1, -1):
            fields = dict(vars(row), **{name: getattr(row, name) + step})
            monkeypatch.setattr(seriesdef, "d2_params",
                                lambda _, f=fields: types.SimpleNamespace(**f))
            code, out, err = invoke(capsys, ["prove", "--p", str(p),
                                             "--method", "integral"])
            assert code == 1, (name, step)
            assert "PASS" not in out
            assert err.startswith(f"error: p={p}: "), (name, step, err)


def test_prove_closed_form(capsys):
    code, out, _ = invoke(capsys, ["prove", "--p", "5", "--method", "closed",
                                   "--digits", "35"])
    assert code == 0
    assert out.splitlines() == ["# log(5) from closed forms, digits=35",
                                "combination = 1 * log(5), exactly", "PASS"]


def test_prove_closed_form_irrational_point_beyond_80_digits(capsys):
    # p = 10's point z = i sqrt(5/3) is irrational; the proof must not
    # depend on a numeric root of limited precision
    code, out, _ = invoke(capsys, ["prove", "--p", "10", "--method", "closed",
                                   "--digits", "90"])
    assert code == 0
    assert out.rstrip().endswith("PASS")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 10])
def test_prove_closed_form_perturbed_row_fails_by_name(capsys, monkeypatch, p):
    from logseries import seriesdef
    row = seriesdef.d2_params(p)
    for name in "abc":
        for step in (1, -1):
            fields = dict(vars(row), **{name: getattr(row, name) + step})
            monkeypatch.setattr(seriesdef, "d2_params",
                                lambda _, f=fields: types.SimpleNamespace(**f))
            code, out, err = invoke(capsys, ["prove", "--p", str(p),
                                             "--method", "closed"])
            assert code == 1, (name, step)
            assert "PASS" not in out
            assert err.startswith(f"error: p={p}: "), (name, step, err)


def test_prove_closed_form_past_the_int_string_limit(capsys):
    # the series checks read about 4,330 digits of binsplit text; under
    # the interpreter's default limit that text must still parse
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = invoke(capsys, ["prove", "--p", "3", "--method",
                                         "closed", "--digits", "4300"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["# log(3) from closed forms, digits=4300",
                                "combination = 1 * log(3), exactly", "PASS"]


def test_prove_unsupported_target(capsys):
    code, _, err = invoke(capsys, ["prove", "--p", "6"])
    assert code == 1
    assert err


# ----------------------------------------------------------------------
#  alternating
# ----------------------------------------------------------------------

def test_alternating_single_target(capsys):
    code, out, _ = invoke(capsys, ["alternating", "--p", "5"])
    assert code == 0
    assert "-1/675" in out
    assert "(728, 604, 75)" in out


def test_alternating_irrational_target(capsys):
    code, out, _ = invoke(capsys, ["alternating", "--p", "7"])
    assert code == 0
    assert "not rational" in out


# Recorded from the numeric (r, phi) solver that the exact scan
# replaced; the benchmark parses this table.
ALTERNATING_SCAN = (
    '#  p    m   rho              (a, b, c)                r               phi\n'
    '   5   -1   -1/675           (728, 604, 75)           1.414213562373  0.785398163397\n'
    '  10  -15   -1/80            (1134, 927, 80)          2.449489742783  0.911738290968\n'
    '  21   -3   -256/3969        (8840, 6940, 441)        4.000000000000  1.047197551196\n'
    '  56   -7   -15625/48384     (179630, 126775, 5376)   7.071067811865  1.209429202888\n'
)


def test_alternating_output_is_unchanged(capsys):
    assert invoke(capsys, ["alternating", "--scan", "2", "133"])[:2] == (
        0, ALTERNATING_SCAN)
    assert invoke(capsys, ["alternating", "--p", "7"])[:2] == (
        0, "p=7: the solved rate is not rational; "
           "no alternating series of this shape exists\n")


# Every subcommand with --out that replaces the file. search --out is
# left out: it appends its report and prints it as well.
OUT_RUNS = {
    "compute": ["compute", "--p", "2", "--digits", "60"],
    "catalog": ["catalog"],
    "cost": ["cost", "--all"],
    "family-summary": ["family", "--method", "level1", "--p", "5"],
    "family-digits": ["family", "--method", "level1", "--p", "5",
                      "--digits", "40"],
    "alternating-scan": ["alternating", "--scan", "2", "30"],
    "alternating-hit": ["alternating", "--p", "5"],
    "alternating-miss": ["alternating", "--p", "7"],
}


@pytest.mark.parametrize("name", sorted(OUT_RUNS))
def test_out_file_holds_exactly_the_stdout(capsys, tmp_path, name):
    argv = OUT_RUNS[name]
    path = tmp_path / "out.txt"
    code, out, err = invoke(capsys, argv)
    assert code == 0 and out
    assert invoke(capsys, argv + ["--out", str(path)]) == (code, "", err)
    assert path.read_text(encoding="utf-8") == out


def test_alternating_scan_window(capsys):
    code, out, _ = invoke(capsys, ["alternating", "--scan", "4", "11"])
    assert code == 0
    assert "-1/675" in out
    assert "-1/80" in out


def test_alternating_undecided_point_exits_1(capsys, monkeypatch):
    real = altseries._examine

    def examine(p):
        if p == 7:
            raise ValueError("p=7: series does not reproduce log 7")
        return real(p)

    monkeypatch.setattr(altseries, "_examine", examine)
    code, out, _ = invoke(capsys, ["alternating", "--scan", "4", "11"])
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[1:3]] == ["5", "10"]
    assert lines[3:] == ["undecided p=7: series does not reproduce log 7"]


def test_alternating_bad_scan_bounds(capsys):
    code, out, err = invoke(capsys, ["alternating", "--scan", "9", "6"])
    assert code == 2
    assert out == ""
    assert err == "usage error: alternating --scan needs LO <= HI\n"


def test_alternating_targets_outside_the_scan_limit_are_usage_errors(capsys):
    for argv in (["--p", "200"], ["--p", "1"], ["--scan", "2", "200"],
                 ["--scan", "1", "9"]):
        code, out, err = invoke(capsys, ["alternating"] + argv)
        assert code == 2, argv
        assert out == ""
        assert err == ("usage error: alternating targets must sit inside "
                       "[2, 133]\n")


def test_alternating_needs_exactly_one_mode(capsys):
    assert invoke(capsys, ["alternating"])[0] == 2
    assert invoke(capsys, ["alternating", "--p", "5",
                           "--scan", "4", "9"])[0] == 2


# ----------------------------------------------------------------------
#  family
# ----------------------------------------------------------------------

def test_family_summary_block(capsys):
    code, out, _ = invoke(capsys, ["family", "--method", "level2",
                                   "--p", "4"])
    assert code == 0
    assert "label:       log(4)-level2" in out
    assert "rho:" in out and "cost:" in out


def test_family_digits_match_oracle(capsys):
    code, out, _ = invoke(capsys, ["family", "--method", "level1",
                                   "--p", "7", "--digits", "80"])
    assert code == 0
    assert digits_from_rows(out) == machin.log_decimal(7, 80)


# Recorded from the construction in Fraction polynomial arithmetic that
# the integer one replaced.
FAMILY_D6_5_2 = (
    "label:       log(5/2)-d6\n"
    "rho:         129140163/968890104070000\n"
    "cost:        1.5160\n"
    "numerator:   ['55495791807255', '635495169041106', '2650583036834980', "
    "'5098289313891160', '4593205042895360', '1569847047987584']\n"
    "denominator: ['19305', '489804', '3985660', '14521248', '26084464', "
    "'22588608', '7529536']\n"
    "normalizer:  3/9411920000\n"
    "start:       0\n"
)


def test_family_fractional_target(capsys):
    assert invoke(capsys, ["family", "--method", "d6", "--p", "5/2"]) \
        == (0, FAMILY_D6_5_2, "")


def test_family_domain_violation(capsys):
    code, _, err = invoke(capsys, ["family", "--method", "level1",
                                   "--p", "50"])
    assert code == 1
    assert "convergence region" in err


def test_family_target_at_or_below_zero(capsys):
    # the domain check comes before the rate, which divides by p and p + 1
    for method, p in (("d4", "0"), ("d6", "-1")):
        code, out, err = invoke(capsys, ["family", "--method", method,
                                         "--p", p])
        assert code == 1
        assert out == ""
        assert err == f"error: p={p} outside the {method} convergence region\n"


def test_family_malformed_target(capsys):
    assert invoke(capsys, ["family", "--method", "d4", "--p", "abc"])[0] == 2


def test_family_zero_denominator_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, ["family", "--method", "d4", "--p", "1/0"])
    assert code == 2
    assert out == ""
    assert "argument --p: not a fraction: '1/0'" in err
    assert "Traceback" not in err


def test_family_at_p_one_is_exact_zero():
    # every family has rho = 0 and sums to exactly 0 at p = 1; the timeout
    # makes a guard window that never settles fail instead of hang
    env = dict(os.environ,
               PYTHONPATH=str(Path(logseries.__file__).resolve().parents[1]))
    for method in ("level1", "level2", "d4", "d6"):
        proc = subprocess.run(
            [sys.executable, "-c", "from logseries import cli; cli.main()",
             "family", "--method", method, "--p", "1", "--digits", "5"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert digits_from_rows(proc.stdout) == machin.log_decimal(1, 5)


def test_import_changes_no_global_state():
    # the oracle must still print more digits than the interpreter's
    # default int -> str conversion limit allows
    env = dict(os.environ,
               PYTHONPATH=str(Path(logseries.__file__).resolve().parents[1]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    script = (
        "import sys\n"
        "limit = sys.get_int_max_str_digits()\n"
        "import logseries.cli\n"
        "from logseries import machin\n"
        "assert sys.get_int_max_str_digits() == limit > 0\n"
        "text = machin.log_decimal(2, 5000)\n"
        "assert len(text) == 5002 and text.startswith('0.6931471805')\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ,
               PYTHONPATH=str(Path(logseries.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "logseries", "compute", "--p", "2",
         "--digits", "20"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert digits_from_rows(proc.stdout) == machin.log_decimal(2, 20)


def test_closed_stdout_exits_quietly():
    # 70000 digits fill more than a pipe buffer, so the child is still
    # writing when the reader closes after one line
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(logseries.__file__).resolve().parents[1]))
    with subprocess.Popen(
            [sys.executable, "-m", "logseries", "compute", "--p", "2",
             "--digits", "70000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith("# log(2) digits=70000")
    assert (code, err) == (1, "")
