"""logseries benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is compute-1e5, search-box, verify-suite, or `all` for every
workload in turn. The harness builds the workload's jobs from the seed,
computes the oracle values they are checked against, then starts fresh
interpreters (bench/worker.py), one per iteration, until S seconds of
iterations have run. Each iteration imports logseries from ./src and
runs the jobs in-process through `logseries.cli.run`.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with --trace 1 one traced iteration
follows the untraced ones and the metrics are the per-layer ones. The
lines above it print every metric with its unit, the failures, and a
run record, which is also written to .bench_runs/.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; leave room for checking and printing.
RUN_BUDGET_S = 165
SETUP_PROBES = 25
ORACLE_CACHE_DIGITS = 10_000

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); the per_layer list of BENCHMARK.json, in this order
PER_LAYER = (
    ("binsplit.SplitNode.value.calls", "count"),
    ("binsplit.SplitNode.value.s", "s"),
    ("binsplit.evaluate.calls", "count"),
    ("binsplit.evaluate.self_s", "s"),
    ("binsplit.split_range.s", "s"),
    ("binsplit.terms", "count"),
    ("binsplit.final_bits", "bit"),
    ("binsplit.cross_verify.self_s", "s"),
    ("binsplit.render_digit_rows.s", "s"),
    ("relsearch.lll_reduce.calls", "count"),
    ("relsearch.lll_reduce.s", "s"),
    ("relsearch.lindep.calls", "count"),
    ("relsearch.lindep.self_s", "s"),
    ("relsearch.search.self_s", "s"),
    ("relsearch.detections", "count"),
    ("relsearch.confirmed", "count"),
    ("relsearch.confirm_ratio", "ratio"),
    ("relsearch.warnings", "count"),
    ("exactnum.FixedReal.from_rational.calls", "count"),
    ("exactnum.FixedReal.from_rational.s", "s"),
    ("wzcert.certificate_telescoping_check.s", "s"),
    ("wzcert.certificate_telescoping_check.points", "count"),
    ("wzcert.gst_series_sum.s", "s"),
    ("altseries.scan_range.s", "s"),
    ("altseries.targets", "count"),
    ("altseries.hits", "count"),
    ("altseries.skipped", "count"),
    ("betaproof.integral_check.s", "s"),
    ("betaproof.log_from_closed_forms.s", "s"),
    ("machin.log_decimal.calls", "count"),
    ("machin.log_decimal.s", "s"),
    ("seriesdef.estimate_terms.calls", "count"),
    ("seriesdef.estimate_terms.s", "s"),
    ("seriesdef.family.s", "s"),
    ("cli.self_s", "s"),
    ("cli.compute.s", "s"),
    ("cli.search.s", "s"),
    ("cli.wz-verify.s", "s"),
    ("cli.prove.s", "s"),
    ("cli.alternating.s", "s"),
    ("cli.family.s", "s"),
    *((f"cost_model.{label}.{kind}", unit)
      for label in ("log2-eq8", "log3-eq8a", "log5-eq8b", "log2-eq9",
                    "log2-eq11", "log2-eq13", "log3-eq15a", "log2-eq18",
                    "log7-tableI", "log10-tableI")
      for kind, unit in (("s", "s"), ("predicted", "cost"))),
    ("cost_model.rank_tau", "tau"),
    ("trace.overhead_s", "s"),
    ("trace.observer_errors", "count"),
)

FAMILY_CONSTRUCTORS = ("seriesdef.level1_series", "seriesdef.level2_series",
                       "seriesdef.d4_family", "seriesdef.d6_family")
CLI_SUBCOMMANDS = ("compute", "search", "wz-verify", "prove", "alternating",
                   "family")


class RunFailed(Exception):
    """The benchmark could not measure the program at all."""


def _environment():
    import mpmath
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "libmpdec": decimal.__libmpdec_version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _oracle_values(jobs):
    """machin.log_decimal for every (x, digits) a job is checked against,
    computed here so it counts toward no workload metric. Values of
    ORACLE_CACHE_DIGITS or more digits are kept in .bench_runs/ and
    reused by later runs in the same checkout."""
    from logseries import machin
    values = {}
    for x, digits in {job.oracle for job in jobs if job.oracle is not None}:
        path = RUNS / f"oracle-log{x.numerator}_{x.denominator}-{digits}.txt"
        if digits >= ORACLE_CACHE_DIGITS and path.is_file():
            values[x, digits] = path.read_text(encoding="ascii")
            continue
        values[x, digits] = machin.log_decimal(x, digits)
        if digits >= ORACLE_CACHE_DIGITS:
            RUNS.mkdir(exist_ok=True)
            partial = path.with_suffix(".partial")
            partial.write_text(values[x, digits], encoding="ascii")
            partial.replace(path)
    return values


def _worker(plan, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise subprocess.TimeoutExpired(str(WORKER), 0)
    # a fixed hash seed gives every iteration the same set and dict order
    env = dict(os.environ, PYTHONHASHSEED="0")
    # subprocess.run kills and reaps the worker on timeout or interrupt
    proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(plan),
                          capture_output=True, text=True, timeout=remaining,
                          cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-1500:]}")
    return json.loads(proc.stdout)


def _plan(jobs, trace=False, probe=None, spans_out=None, import_only=False):
    return {"src": str(SRC), "jobs": [list(job.argv) for job in jobs],
            "trace": trace, "probe": probe or {}, "spans_out": spans_out,
            "import_only": import_only}


def judge(job, result, oracles):
    """None when the job ran and its output is right, else the reason."""
    if result["error"] is not None:
        return "raised: " + result["error"].strip().splitlines()[-1]
    if result["code"] != 0:
        return f"exit {result['code']}: {result['err'].strip()[-200:]}"
    try:
        return job.check(result["out"], oracles.get(job.oracle))
    except Exception as exc:  # a checker bug counts against the job
        return f"checker raised {exc!r}"


def _wall(results):
    return max(r["end"] for r in results) - min(r["start"] for r in results)


def layer_metrics(layers, traced_results, jobs, untraced_wall):
    totals, counters = layers["totals"], layers["counters"]
    warnings, probes = layers["warnings"], layers["probes"]

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for metric, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if metric in probes:
            out[metric] = probes[metric]
        elif metric in counters:
            out[metric] = counters[metric]
        elif field in ("calls", "s", "self_s"):
            out[metric] = total(head, field)
        else:
            out[metric] = 0
    detections = counters.get("relsearch.detections", 0)
    out["relsearch.confirm_ratio"] = (
        counters.get("relsearch.confirmed", 0) / detections if detections else 0)
    out["relsearch.warnings"] = warnings.get("logseries.relsearch", 0)
    out["altseries.skipped"] = warnings.get("logseries.altseries", 0)
    out["seriesdef.family.s"] = sum(total(n, "s") for n in FAMILY_CONSTRUCTORS)
    out["cli.self_s"] = total("cli.run", "self_s")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.s"] = sum(r["end"] - r["start"]
                                  for job, r in zip(jobs, traced_results)
                                  if job.subcommand == sub)
    out["trace.overhead_s"] = _wall(traced_results) - untraced_wall
    return out


def time_split(totals, wall, top=8):
    """The largest self times of the traced pass, as (name, s, share)."""
    rows = sorted(((name, t["self_s"]) for name, t in totals.items()),
                  key=lambda row: -row[1])
    return [(name, s, s / wall) for name, s in rows[:top]]


def run_workload(name, seed, seconds, trace, deadline):
    workload = WORKLOADS[name]
    jobs, probe = workload.build(seed)
    started = time.monotonic()
    oracles = _oracle_values(jobs)
    oracle_s = time.monotonic() - started
    # compile bytecode once so no timed import pays for it
    _worker(_plan([], import_only=True), deadline)

    attempted, failures, walls, rss, setup = 0, [], [], [], []

    def tally(results):
        nonlocal attempted
        for job, result in zip(jobs, results):
            attempted += 1
            reason = judge(job, result, oracles)
            if reason is not None:
                failures.append({"argv": " ".join(job.argv), "reason": reason})

    loop_start = time.monotonic()
    # stop early rather than overrun the budget the traced pass needs
    while not walls or (time.monotonic() - loop_start < seconds
                        and time.monotonic() + 3 * walls[-1] < deadline):
        record = _worker(_plan(jobs), deadline)
        tally(record["jobs"])
        walls.append(_wall(record["jobs"]))
        rss.append(record["peak_rss_kb"] / 1024)
        setup.append(record["setup_s"])
    for _ in range(SETUP_PROBES):
        setup.append(_worker(_plan([], import_only=True), deadline)["setup_s"])

    end_to_end = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(rss)}
    report = {
        "workload": name, "why": workload.why, "seed": seed,
        "seeded_input": workload.seeded or "none: the seed changes nothing",
        "seconds": seconds, "trace": trace, "environment": _environment(),
        "iterations": len(walls), "walls_s": walls, "setup_samples_s": setup,
        "peak_rss_mb_samples": rss, "oracle_s": oracle_s,
        "end_to_end": end_to_end,
    }
    if trace:
        RUNS.mkdir(exist_ok=True)
        spans_out = RUNS / f"{name}-seed{seed}-spans.json"
        record = _worker(_plan(jobs, trace=True, probe=probe,
                               spans_out=str(spans_out)), deadline)
        tally(record["jobs"])
        layers = record["layers"]
        report["per_layer"] = layer_metrics(layers, record["jobs"], jobs,
                                            end_to_end["wall_s"])
        report["traced_wall_s"] = _wall(record["jobs"])
        report["time_split"] = time_split(layers["totals"],
                                          report["traced_wall_s"])
        report["spans_file"] = str(spans_out.relative_to(ROOT))
    report["attempted"] = attempted
    report["failed"] = len(failures)
    report["failed_frac"] = len(failures) / attempted
    report["failures"] = failures
    return report


def _print_report(report):
    print(f"# workload {report['workload']}  seed {report['seed']}  "
          f"seeded input: {report['seeded_input']}")
    print(f"# {report['iterations']} untraced iterations, "
          f"walls {', '.join(f'{w:.3f}' for w in report['walls_s'])} s")
    print("# end-to-end (untraced, median over iterations)")
    for metric, unit in END_TO_END:
        print(f"{metric:<46}{report['end_to_end'][metric]:>14.6f} {unit}")
    print(f"{'failed_frac':<46}{report['failed_frac']:>14.6f} frac "
          f"({report['failed']} of {report['attempted']} jobs)")
    for failure in report["failures"][:20]:
        print(f"# FAILED {failure['argv']}: {failure['reason']}")
    if "per_layer" in report:
        print(f"# per layer (one traced iteration, wall "
              f"{report['traced_wall_s']:.3f} s)")
        for metric, unit in PER_LAYER:
            value = report["per_layer"][metric]
            print(f"{metric:<46}{value:>14.6f} {unit}")
        print("# time split of the traced iteration: self time, share of wall")
        for name, s, share in report["time_split"]:
            print(f"#   {name:<42}{s:>10.3f} s {100 * share:6.1f} %")
    print("# record " + json.dumps({k: v for k, v in report.items()
                                    if k not in ("per_layer", "end_to_end")}))


def _result_line(report, trace, prefix=""):
    if trace:
        metrics = {f"{prefix}{m}": {"value": report["per_layer"][m], "unit": u}
                   for m, u in PER_LAYER}
    else:
        metrics = {f"{prefix}{m}": {"value": report["end_to_end"][m], "unit": u}
                   for m, u in END_TO_END}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "logseries" / "__init__.py").is_file():
        print(f"error: no logseries source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            report = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), deadline)
        except (RunFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        RUNS.mkdir(exist_ok=True)
        path = RUNS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        _print_report(report)
        part = _result_line(report, args.trace,
                            prefix=f"{name}:" if len(names) > 1 else "")
        line["correct"] = line["correct"] and part["correct"]
        line["attempted"] += part["attempted"]
        line["failed"] += part["failed"]
        line["metrics"].update(part["metrics"])
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
