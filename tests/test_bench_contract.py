"""The names the benchmark harness under bench/ calls into the package by.

The harness wraps functions and methods by name, reads argument names in
its observers and probes the split tree, so a rename in the package
would abort a benchmark run; these tests make it fail here first.
"""

import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

import logseries  # noqa: E402
from logseries import altseries, binsplit, seriesdef  # noqa: E402


def test_tracer_installs_on_the_package_and_uninstalls():
    value = binsplit.SplitNode.__dict__["value"]
    evaluate = binsplit.evaluate
    tracer = spans.Tracer(worker._observers())
    tracer.install(worker._package_modules(), worker.TRACED_METHODS)
    try:
        assert binsplit.SplitNode.__dict__["value"] is not value
        assert binsplit.evaluate is not evaluate
    finally:
        tracer.uninstall()
    assert binsplit.SplitNode.__dict__["value"] is value
    assert binsplit.evaluate is evaluate


def test_split_probe_reads_a_node():
    probe = worker._split_probe({"series": "log2-eq8", "digits": 1000}, 0)
    bits = probe["binsplit.final_bits"]
    assert isinstance(bits, int) and bits > 0
    assert probe["binsplit.terms"] == seriesdef.estimate_terms(
        seriesdef.catalog_get("log2-eq8"), 1000)


def test_observed_argument_names_still_bind():
    assert "spec" in inspect.signature(seriesdef.estimate_terms).parameters
    params = inspect.signature(altseries.scan_range).parameters
    assert {"p_lo", "p_hi"} <= set(params)


def _harness_names():
    """Every dotted name the harness wraps or totals by: observers, traced
    methods, family constructors, cli.run and the head of each timed or
    counted per-layer metric outside its own cli., cost_model. and
    trace. groups."""
    names = {*worker._observers(), *worker.TRACED_METHODS,
             *run.FAMILY_CONSTRUCTORS, "cli.run"}
    for metric, _ in run.PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s") and head != "seriesdef.family" \
                and not metric.startswith(("cli.", "cost_model.", "trace.")):
            names.add(head)
    return names


def test_every_harness_name_resolves():
    # a name that no longer resolves is not traced, and its metric reads 0
    names = _harness_names()
    assert len(names) >= 21
    for name in names:
        module, *path = name.split(".")
        obj = getattr(logseries, module)
        for attr in path:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
