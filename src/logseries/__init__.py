"""Logarithms of small integers from central binomial series.

The package evaluates log p to arbitrary decimal precision from
hypergeometric series with rational term ratios, discovers new series
by integer relation search, and proves the catalogued ones by WZ
certificate telescoping and beta integral decompositions.

The usual entry points:

    seriesdef.catalog_get(label)    a ready-made series by name
    binsplit.evaluate(spec, digits) its decimal expansion
    binsplit.cross_verify(a, b, d)  (a's digits, how many b confirms);
                                    b runs in a child process when 2 or
                                    more CPUs are usable, with
                                    byte-identical output
    relsearch.search(...)           hunt for new series
    altseries.scan_range(lo, hi)    alternating series with rational rates
    wzcert / betaproof              certificates and integral proofs
    machin.log_decimal(x, digits)   the independent arctanh oracle
"""

from .binsplit import DigitsResult, VerificationError, cross_verify, evaluate
from .seriesdef import (
    Motive,
    SeriesSpec,
    binary_splitting_cost,
    catalog_get,
    catalog_labels,
)

__version__ = "0.1.0"

__all__ = [
    "DigitsResult",
    "Motive",
    "SeriesSpec",
    "VerificationError",
    "binary_splitting_cost",
    "catalog_get",
    "catalog_labels",
    "cross_verify",
    "evaluate",
    "__version__",
]
