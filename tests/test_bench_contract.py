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

import spans  # noqa: E402
import worker  # noqa: E402

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
