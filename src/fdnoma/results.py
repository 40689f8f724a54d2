"""Sweep rows and their CSV, shared by both evaluators, neither of which this module imports.

A row's kind says which evaluator made it, MONTE_CARLO or ANALYTIC.  The records are
NamedTuples: immutable and cheap to build, copied with a change by _replace.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

MONTE_CARLO = "monte_carlo"
ANALYTIC = "analytic"


class MetricEstimate(NamedTuple):
    """A point estimate with its standard error; analytic values carry 0."""

    value: float
    std_error: float
    trials: int


class MetricSet(NamedTuple):
    rate_u1: MetricEstimate
    rate_u2: MetricEstimate
    rate_sum: MetricEstimate
    outage_u1: MetricEstimate
    outage_u2: MetricEstimate
    jain_index: MetricEstimate


class SweepRow(NamedTuple):
    power_db: float
    scheme: str
    kind: str
    trials: int
    metrics: MetricSet


def jain_index(rate_u1: float, rate_u2: float) -> float:
    """Two-user fairness index (r1+r2)^2 / (2 (r1^2 + r2^2)) in [0.5, 1].

    1 means equal rates, 0.5 means one user takes everything.  Undefined
    at (0, 0); returns 1 by convention with a warning.
    """
    if rate_u1 == 0.0 and rate_u2 == 0.0:
        warnings.warn("jain_index undefined for two zero rates; returning 1", RuntimeWarning)
        return 1.0
    total = rate_u1 + rate_u2
    index = total * total / (2.0 * (rate_u1 * rate_u1 + rate_u2 * rate_u2))
    # rounding can take the ratio an ulp past its bounds (1.0000000000000002 at rates 100 and 100 - 1 ulp)
    return 1.0 if index > 1.0 else 0.5 if index < 0.5 else index


def masked_set(metrics: tuple[str, ...], nan: MetricEstimate, rates=None, outages=None, jain=None) -> MetricSet:
    """A MetricSet of the requested metric families, each from its function (called only if
    requested), and `nan` in every field of the others: simulated and closed-form alike."""
    rate_u1, rate_u2, rate_sum = rates() if "rates" in metrics else (nan, nan, nan)
    outage_u1, outage_u2 = outages() if "outage" in metrics else (nan, nan)
    return MetricSet(rate_u1, rate_u2, rate_sum, outage_u1, outage_u2, jain() if "jain" in metrics else nan)


CSV_COLUMNS = (
    "power_db", "scheme", "rate_u1", "rate_u1_se", "rate_u2", "rate_u2_se", "rate_sum",
    "outage_u1", "outage_u1_se", "outage_u2", "outage_u2_se", "jain", "trials", "kind",
)
# A row's CSV line: each float at full precision, and the scheme, trial count and kind as they
# are (the scheme and kind are identifiers, which need no quoting).
_LINE = ",".join("{}" if column in ("scheme", "trials", "kind") else "{:.17g}" for column in CSV_COLUMNS) + "\n"


def write_csv(rows: list[SweepRow], target) -> None:
    """Write sweep rows with full-precision decimals; byte-stable for a seed."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    handle = open(target, "w", newline="") if own else target
    try:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for power_db, scheme, kind, trials, metrics in rows:  # a record unpacks in field order
            (r1, r1_se, _), (r2, r2_se, _), (r_sum, _, _), (o1, o1_se, _), (o2, o2_se, _), (jain, _, _) = metrics
            handle.write(_LINE.format(power_db, scheme, r1, r1_se, r2, r2_se, r_sum, o1, o1_se, o2, o2_se, jain,
                                      trials, kind))
    finally:
        if own:
            handle.close()
