"""One workload iteration in a fresh interpreter.

Reads a plan (JSON) on standard input, imports logseries from the given
source tree, runs each job through `logseries.cli.run` in this process
and thread, and prints one JSON result on standard output. The harness
(`run.py`) starts it; it is not meant to be run by hand.

The plan: {"src": path, "jobs": [argv, ...], "trace": bool,
"probe": {"series": label, "digits": n} or {}, "spans_out": path or
null, "import_only": bool}. A traced pass with a probe also times the
split tree and the catalog cost model after the jobs.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_logseries(src):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import logseries.cli
    setup_s = time.perf_counter() - start
    where = Path(logseries.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"logseries came from {where}, not from {src}")
    return setup_s


def _package_modules():
    import logseries
    from logseries import (altseries, betaproof, binsplit, cli, exactnum,
                           machin, relsearch, seriesdef, wzcert)
    return [logseries, altseries, betaproof, binsplit, cli, exactnum, machin,
            relsearch, seriesdef, wzcert]


def _cache_clearers(modules):
    """cache_clear of every functools cache at module level: each CLI
    invocation starts with cold caches, so each job does too."""
    found = {}
    for module in modules:
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                found[id(obj)] = clear
    return list(found.values())


def _warning_counter():
    """Counts WARNING and above per `logseries.*` logger name."""
    import logging
    from collections import Counter

    class _Count(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.counts = Counter()

        def emit(self, record):
            self.counts[record.name] += 1

    handler = _Count()
    logging.getLogger("logseries").addHandler(handler)
    return handler.counts


def _run_jobs(argvs, clearers, tracer=None):
    from logseries import cli
    results = []
    for index, argv in enumerate(argvs):
        for clear in clearers:
            clear()
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
        except Exception:
            # a job that raises is a failed job, not a failed run
            code, error = None, traceback.format_exc(limit=8)
        end = time.perf_counter()
        results.append({"code": code, "out": out.getvalue(),
                        "err": err.getvalue()[-2000:], "error": error,
                        "start": start, "end": end})
    return results


# ----------------------------------------------------------------------
#  traced pass
# ----------------------------------------------------------------------

def _observers():
    def lindep(counters, args, result):
        if result is not None:
            counters["relsearch.detections"] += 1

    def search(counters, args, result):
        counters["relsearch.confirmed"] += len(result)

    def scan_range(counters, args, result):
        counters["altseries.targets"] += args["p_hi"] - args["p_lo"] + 1
        counters["altseries.hits"] += len(result)

    def telescoping(counters, args, result):
        counters["wzcert.certificate_telescoping_check.points"] += result.points

    def estimate_terms(counters, args, result):
        key = f"terms:{args['spec'].label}"
        counters[key] = max(counters[key], result)

    return {
        "relsearch.lindep": lindep,
        "relsearch.search": search,
        "altseries.scan_range": scan_range,
        "wzcert.certificate_telescoping_check": telescoping,
        "seriesdef.estimate_terms": estimate_terms,
    }


TRACED_METHODS = ("binsplit.SplitNode.value", "exactnum.FixedReal.from_rational")


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def _split_probe(probe, terms, repeats=3):
    """Times the split tree alone at the primary series' term count."""
    from logseries import binsplit, seriesdef
    spec = seriesdef.catalog_get(probe["series"])
    if not terms:
        terms = seriesdef.estimate_terms(spec, probe["digits"])
    lo = spec.start_index
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        node = binsplit.split_range(spec, lo, lo + terms)
        times.append(time.perf_counter() - start)
    return {"binsplit.split_range.s": _median(times),
            "binsplit.terms": terms,
            "binsplit.final_bits": int(node.B * node.Q).bit_length()}


COST_MODEL_DIGITS = 20_000


def _cost_model(clearers, repeats=3):
    """Measured evaluate time of every catalog series at one digit count
    next to the paper's -4d/ln|rho| cost, with their Kendall tau."""
    from logseries import binsplit, seriesdef
    out = {}
    measured, predicted = [], []
    for label in seriesdef.catalog_labels():
        spec = seriesdef.catalog_get(label)
        times = []
        for _ in range(repeats):
            for clear in clearers:
                clear()
            start = time.perf_counter()
            binsplit.evaluate(spec, COST_MODEL_DIGITS)
            times.append(time.perf_counter() - start)
        measured.append(_median(times))
        predicted.append(float(seriesdef.binary_splitting_cost(spec)))
        out[f"cost_model.{label}.s"] = measured[-1]
        out[f"cost_model.{label}.predicted"] = predicted[-1]
    out["cost_model.rank_tau"] = kendall_tau(measured, predicted)
    return out


def kendall_tau(xs, ys):
    """Kendall's tau-b rank correlation of two equal-length sequences."""
    concordant = discordant = ties_x = ties_y = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dx, dy = xs[i] - xs[j], ys[i] - ys[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    denom = ((concordant + discordant + ties_x)
             * (concordant + discordant + ties_y)) ** 0.5
    return (concordant - discordant) / denom if denom else 0.0


def _traced_pass(plan, modules, clearers, warnings):
    from spans import Tracer
    tracer = Tracer(_observers())
    tracer.install(modules, TRACED_METHODS)
    try:
        results = _run_jobs(plan["jobs"], clearers, tracer)
    finally:
        tracer.uninstall()
    layers = {"totals": tracer.totals(), "counters": dict(tracer.counters),
              "warnings": dict(warnings)}
    if plan["spans_out"]:
        with open(plan["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["job", "span", "parent", "name", "start",
                                  "end", "nested"],
                       "spans": tracer.spans}, fh)
    probes = {}
    if plan["probe"]:
        series = plan["probe"]["series"]
        probes.update(_split_probe(plan["probe"],
                                   tracer.counters.get(f"terms:{series}", 0)))
        probes.update(_cost_model(clearers))
    layers["probes"] = probes
    return results, layers


def main():
    plan = json.load(sys.stdin)
    setup_s = _import_logseries(plan["src"])
    record = {"setup_s": setup_s}
    if not plan["import_only"]:
        modules = _package_modules()
        clearers = _cache_clearers(modules)
        warnings = _warning_counter()
        if plan["trace"]:
            record["jobs"], record["layers"] = _traced_pass(
                plan, modules, clearers, warnings)
        else:
            record["jobs"] = _run_jobs(plan["jobs"], clearers)
            # peak resident set of this process, in KiB on Linux
            record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(record, sys.stdout)


if __name__ == "__main__":
    main()
