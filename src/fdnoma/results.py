"""Sweep rows and their CSV, shared by both evaluators, neither of which this module imports, and
the one comparison of a simulated estimate with its closed form (deviation, family_bound,
without_power).

A row's kind says which evaluator made it, MONTE_CARLO or ANALYTIC.  The records are
NamedTuples: immutable and cheap to build, copied with a change by _replace.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

MONTE_CARLO = "monte_carlo"
ANALYTIC = "analytic"


class MetricEstimate(NamedTuple):
    """A point estimate with its standard error; analytic values carry 0, and a simulated sum rate
    and Jain's index math.nan: not estimated."""

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
    at (0, 0); returns 1 by convention with a warning.  Both rates are first
    scaled by the power of two that brings the larger into [0.5, 1): the
    index does not change, the scaling is exact, and the squares of rates
    below about 1.5e-154 do not underflow to 0.
    """
    if rate_u1 == 0.0 and rate_u2 == 0.0:
        warnings.warn("jain_index undefined for two zero rates; returning 1", RuntimeWarning)
        return 1.0
    scale = -math.frexp(max(rate_u1, rate_u2))[1]
    r1, r2 = math.ldexp(rate_u1, scale), math.ldexp(rate_u2, scale)
    total = r1 + r2
    index = total * total / (2.0 * (r1 * r1 + r2 * r2))
    # rounding can take the ratio an ulp past its bounds (1.0000000000000002 at rates 100 and 100 - 1 ulp)
    return 1.0 if index > 1.0 else 0.5 if index < 0.5 else index


def masked_set(metrics: tuple[str, ...], nan: MetricEstimate, rates=None, outages=None, jain=None) -> MetricSet:
    """A MetricSet of the requested metric families, each from its function (called only if
    requested), and `nan` in every field of the others: simulated and closed-form alike."""
    rate_u1, rate_u2, rate_sum = rates() if "rates" in metrics else (nan, nan, nan)
    outage_u1, outage_u2 = outages() if "outage" in metrics else (nan, nan)
    return MetricSet(rate_u1, rate_u2, rate_sum, outage_u1, outage_u2, jain() if "jain" in metrics else nan)


FAMILY_LEVEL = 1e-3  # the most often a call of comparisons fails on correct code, however many it makes


def family_bound(comparisons: int) -> float:
    """The deviation, in se, each of a call's n comparisons may reach: Phi^-1(1 - FAMILY_LEVEL / 2n), by
    Bonferroni a two-sided tail of FAMILY_LEVEL / n each, dependent or not (3.84 se at n = 8, 4.16 at 32)."""
    # Imported here: statistics loads random, fractions and decimal, which only the comparisons need.
    from statistics import NormalDist

    return NormalDist().inv_cdf(1.0 - FAMILY_LEVEL / (2 * comparisons))


_TAIL_FLOOR = math.exp(-40.0)


def deviation(metric: str, estimate: MetricEstimate, target: float) -> float:
    """A simulated estimate's distance, in se (>= 0), from its closed form `target`.

    A rate's is |gap| / se, a gap within rounding (1e-12) none.  An outage's
    ("outage_*") is the exact binomial tail of its event count under p = target,
    on the count's side of trials * p, read as a normal deviate: with se from p,
    3 events in 1e6 trials at p = 2.3e-7, a 0.17% outcome, read 5.8 se.  The tail
    sums the pmf from the count away from the mean, where it only falls, each term
    from the one before by their ratio, down to 40 nats below its first term.
    """
    if not metric.startswith("outage"):
        gap = abs(estimate.value - target)
        return 0.0 if gap <= 1e-12 else gap / estimate.std_error if estimate.std_error > 0 else math.inf
    from statistics import NormalDist

    events, trials, p = round(estimate.value * estimate.trials), estimate.trials, min(max(target, 0.0), 1.0)
    if p in (0.0, 1.0):
        return 0.0 if events == trials * p else math.inf
    first = (math.lgamma(trials + 1) - math.lgamma(events + 1) - math.lgamma(trials - events + 1)
             + events * math.log(p) + (trials - events) * math.log1p(-p))
    odds, terms, k = p / (1.0 - p), [1.0], events
    if events >= trials * p:
        while k < trials and terms[-1] >= _TAIL_FLOOR:
            terms.append(terms[-1] * (trials - k) / (k + 1) * odds)
            k += 1
    else:
        while k > 0 and terms[-1] >= _TAIL_FLOOR:
            terms.append(terms[-1] * k / ((trials - k + 1) * odds))
            k -= 1
    tail = math.exp(first) * math.fsum(terms)
    return math.inf if tail == 0.0 else max(0.0, -NormalDist().inv_cdf(min(tail, 0.5)))


def without_power(metric: str, target: float, trials: int, bound: float) -> bool:
    """Whether a comparison passes `bound` even at zero events, so a closed form too high by any factor
    goes unseen: an outage whose expected count trials * target is at most about ln(2n / FAMILY_LEVEL)."""
    return metric.startswith("outage") and deviation(metric, MetricEstimate(0.0, 0.0, trials), target) <= bound


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
