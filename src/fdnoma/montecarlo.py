"""Monte Carlo estimation of ergodic rates, outage and fairness.

Trials are drawn in fixed-size blocks, one RNG stream per block.  Blocks
run on up to two threads, min(2, available CPUs), with no option to set
it, and one reduction, _metric_set, turns a scheme's per-block partial
sums into all its metrics with math.fsum in block order, so results are
byte-identical for any worker count.  estimate_rates and estimate_outage
are views of estimate_metrics for one scheme.  A run of one block uses
the second thread inside the block instead: a helper thread searches
joint-search tiles while the calling thread runs the stage-wise schemes,
then both share the tiles that are left, and the two joint schemes' sums
are reduced one per thread.  Each thread running blocks holds one block
workspace, a gain batch (about 22 MiB at 4x4x4 antennas) and a set of
gather/SINR buffers, for the length of a sweep or estimator call: blocks
are drawn, gathered and reduced in place, and the buffers are freed when
the call returns.  Within a sweep row, every scheme sees the same
channel realizations (common random numbers), which makes the
per-realization dominance relations between schemes hold exactly in the
outputs.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .channel import DEFAULT_BLOCK_SIZE, GainBatch, blocks, draw_batch, empty_batch
from .config import KNOWN_METRICS, SweepSpec, SystemParams, check_run, db_to_linear, validate
from .selection import JOINT_SCHEMES, NEEDS_RNG, JointSearch, check_scheme, select_batch
from .sinr import cross_sinr, near_sinr, rate_bits, relay_sinr  # noqa: F401  perfbench/spans.py wraps all four names

_RANDOM_SALT = 0x52414E44

MONTE_CARLO = "monte_carlo"
ANALYTIC = "analytic"


@dataclass(frozen=True)
class MetricEstimate:
    """A point estimate with its standard error; analytic values carry 0."""

    value: float
    std_error: float
    trials: int
    kind: str = MONTE_CARLO


@dataclass(frozen=True)
class MetricSet:
    rate_u1: MetricEstimate
    rate_u2: MetricEstimate
    rate_sum: MetricEstimate
    outage_u1: MetricEstimate
    outage_u2: MetricEstimate
    jain_index: MetricEstimate


@dataclass(frozen=True)
class SweepRow:
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
    return total * total / (2.0 * (rate_u1 * rate_u1 + rate_u2 * rate_u2))


class SinrBuffers:
    """Gather and SINR buffers of chosen_sinrs for up to `capacity` rows."""

    def __init__(self, capacity: int):
        self.rows = np.arange(capacity)
        self.index = np.empty(capacity, dtype=np.intp)
        self.values = np.empty((5, capacity))


def chosen_sinrs(
    batch: GainBatch,
    ii: np.ndarray,
    jj: np.ndarray,
    kk: np.ndarray,
    params: SystemParams,
    out: SinrBuffers | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-realization SINRs under the chosen (i, j, k) of every row of the batch.

    Returns (gamma_1, gamma_12, gamma_r, gamma_2, g_ru2): the near user's
    own SINR, the far-user symbol at the near user, at the relay, end to
    end (the minimum of the last three), and the relay-to-far-user SNR,
    as rows of `out` (fresh buffers when None).  Each element takes the
    float operations of relay_sinr, cross_sinr and near_sinr in their order.
    """
    n, a1, a2 = batch.count, params.a1, params.a2
    m_b, m_r, m_t = params.m_b, params.m_r, params.m_t
    # A flat index out of its axis would read a neighbouring row.
    for axis, chosen, size in (("i", ii, m_b), ("j", jj, m_r), ("k", kk, m_t)):
        if np.min(chosen) < 0 or np.max(chosen) >= size:
            raise IndexError(f"chosen {axis} out of range for {size} antennas")
    out = SinrBuffers(n) if out is None else out
    rows, index = out.rows[:n], out.index[:n]
    gamma_1, gamma_12, gamma_r, gamma_2, g_ru2 = out.values[:, :n]

    def gather(gains: np.ndarray, into: np.ndarray, *axes: tuple[np.ndarray, int]) -> np.ndarray:
        # gains[row, i, ...] through the row-major flat index (row * n_i + i) * ..., taken straight into `into`
        np.copyto(index, rows)
        for chosen, size in axes:
            np.multiply(index, size, out=index)
            np.add(index, chosen, out=index)
        return np.take(gains.reshape(-1), index, out=into, mode="clip")

    def power_share_sinr(gain: np.ndarray, interference: np.ndarray, into: np.ndarray) -> np.ndarray:
        # relay_sinr's and cross_sinr's a2 gain / ((a1 gain + interference) + 1); gamma_1 is scratch
        np.add(np.multiply(a1, gain, out=gamma_1), interference, out=gamma_1)
        np.add(gamma_1, 1.0, out=gamma_1)
        return np.divide(np.multiply(a2, gain, out=into), gamma_1, out=into)

    # gamma_2 and g_ru2 hold gathered gains until their own values are due.
    g_br, g_si = gather(batch.g_br, gamma_2, (ii, m_b), (jj, m_r)), gather(batch.g_si, g_ru2, (jj, m_r), (kk, m_t))
    power_share_sinr(g_br, g_si, gamma_r)
    g_su1, g_ru1 = gather(batch.g_su1, gamma_2, (ii, m_b)), gather(batch.g_ru1, g_ru2, (kk, m_t))
    power_share_sinr(g_su1, g_ru1, gamma_12)
    # near_sinr: a1 g_su1 / (g_ru1 + 1)
    np.divide(np.multiply(a1, g_su1, out=gamma_1), np.add(g_ru1, 1.0, out=g_ru1), out=gamma_1)
    gather(batch.g_ru2, g_ru2, (kk, m_t))
    np.minimum(gamma_12, gamma_r, out=gamma_2)
    np.minimum(gamma_2, g_ru2, out=gamma_2)
    return gamma_1, gamma_12, gamma_r, gamma_2, g_ru2


def _scheme_sums(
    batch: GainBatch,
    choice: tuple[np.ndarray, np.ndarray, np.ndarray],
    params: SystemParams,
    thresholds: tuple[float, float],
    out: SinrBuffers,
) -> tuple:
    """One scheme's partial sums over a block under its (i, j, k) choice.

    Returns (trials, sums of r1, r2, r1^2, r2^2 and r1 r2, the two outage
    counts).  The SINRs, rates and products are computed in `out`.
    """
    theta1, theta2 = thresholds
    n = batch.count
    gamma_1, gamma_12, gamma_r, gamma_2, g_ru2 = chosen_sinrs(batch, *choice, params, out)
    out1 = n - int(np.count_nonzero((gamma_12 > theta2) & (gamma_1 > theta1)))
    out2 = n - int(np.count_nonzero((gamma_r > theta2) & (g_ru2 > theta2)))
    r1, r2 = rate_bits(gamma_1, out=gamma_1), rate_bits(gamma_2, out=gamma_2)
    # gamma_12 is spent, so it holds each product in turn
    products = (float(np.sum(np.multiply(x, y, out=gamma_12))) for x, y in ((r1, r1), (r2, r2), (r1, r2)))
    return (n, float(np.sum(r1)), float(np.sum(r2)), *products, out1, out2)


class _Workspace:
    """The block buffers of one sweep or estimator call, reused from block to block.

    borrow("gains") lends a gain batch and borrow("sinrs") a set of SINR
    buffers, of `capacity` trials, to one thread at a time, made when none
    is free; all are freed with the workspace.
    """

    def __init__(self, params: SystemParams, capacity: int):
        self._make = {"gains": lambda: empty_batch(params, capacity), "sinrs": lambda: SinrBuffers(capacity)}
        self._free = {kind: [] for kind in self._make}

    @contextlib.contextmanager
    def borrow(self, kind: str):
        free = self._free[kind]
        try:
            buffers = free.pop()  # atomic, so no two threads take the same buffers
        except IndexError:
            buffers = self._make[kind]()
        try:
            yield buffers
        finally:
            free.append(buffers)


def _run_block(
    params: SystemParams,
    schemes: tuple[str, ...],
    entropy: tuple[int, ...],
    count: int,
    thresholds: tuple[float, float],
    workspace: _Workspace,
    overlap: bool = False,
) -> dict[str, tuple]:
    """Draw one block into the workspace and return each scheme's partial sums over it.

    The joint searches share one far-user grid per tile.  With overlap,
    one helper thread starts on their tiles while this thread runs the
    stage-wise schemes and then joins the tile queue; then the helper
    reduces the second joint scheme while this thread reduces the first.
    Each reduction borrows SINR buffers of its own.
    """
    with workspace.borrow("gains") as gains:
        batch = draw_batch(params, entropy, count, gains)
        joint = tuple(scheme for scheme in JOINT_SCHEMES if scheme in schemes)
        search = JointSearch(batch, params, joint)
        sums = {}

        def reduce(choice: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple:
            with workspace.borrow("sinrs") as buffers:
                return _scheme_sums(batch, choice, params, thresholds, buffers)

        def reduce_joint(scheme: str) -> tuple:
            return reduce(search.indices(scheme))

        def stage_wise() -> None:
            for scheme in schemes:
                if scheme not in joint:
                    rng = None
                    if scheme in NEEDS_RNG:
                        rng = np.random.default_rng(np.random.SeedSequence((*entropy, _RANDOM_SALT)))
                    # the choice is freed before the next scheme selects
                    sums[scheme] = reduce(select_batch(scheme, batch, params, rng))

        if joint and overlap:
            # Imported here, so a run that needs no helper does not load the thread machinery.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(1) as helper:
                tiles = helper.submit(search.run)
                stage_wise()
                search.run()
                tiles.result()
                tail = {scheme: helper.submit(reduce_joint, scheme) for scheme in joint[1:]}
                sums[joint[0]] = reduce_joint(joint[0])
                sums.update((scheme, future.result()) for scheme, future in tail.items())
        else:
            stage_wise()
            if joint:
                search.run()
            sums.update((scheme, reduce_joint(scheme)) for scheme in joint)
        return sums


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate(
    params: SystemParams,
    schemes: tuple[str, ...],
    trials: int,
    entropy_base: tuple[int, ...],
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int | None = None,
    workspace: _Workspace | None = None,
) -> dict[str, list[tuple]]:
    """Each scheme's _scheme_sums per block, in block order; every scheme sees the same blocks.

    Blocks run on `workers` threads, min(2, available CPUs) by default, one
    block in flight per thread, each searching its joint tiles alone; numpy
    releases the GIL in the draws and the array kernels.  Each block's
    partial sums are appended in block order, so their reduction by
    _metric_set is bit-identical for any worker count.  A single worker runs
    every block in the calling thread.  A single block with two or more
    workers runs in the calling thread too, with one helper thread for its
    joint-search tiles and one joint scheme's sums, so threads are never
    nested.  `workspace` (a new one when None) holds min(block_size, trials)
    trials.  block_size is part of each block's stream key, so the public
    estimators and run_sweep keep it at DEFAULT_BLOCK_SIZE.
    """
    validate(params)
    check_run(trials, entropy_base[0])
    for scheme in schemes:
        check_scheme(scheme)
    thresholds = analytic.thresholds(params)
    per_block = {scheme: [] for scheme in schemes}
    unique = tuple(per_block)  # a repeated scheme is simulated once
    if workspace is None:
        workspace = _Workspace(params, min(block_size, trials))

    def run(block: tuple[int, int, int], overlap: bool = False) -> dict[str, tuple]:
        index, _, count = block
        return _run_block(params, unique, (*entropy_base, index), count, thresholds, workspace, overlap)

    def collect(partials) -> dict[str, list[tuple]]:
        for sums in partials:  # in block order
            for scheme, block in sums.items():
                per_block[scheme].append(block)
        return per_block

    layout = blocks(trials, block_size)
    workers = min(2, _available_cpus()) if workers is None else workers
    if workers < 2 or trials <= block_size:
        return collect(run(block, overlap=workers >= 2) for block in layout)
    # Imported here, so a run that needs no pool does not load the thread machinery.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return collect(pool.map(run, layout))


def _masked_set(metrics: tuple[str, ...], nan: MetricEstimate, rates=None, outages=None, jain=None) -> MetricSet:
    """A MetricSet of the requested metric families, each from its function (called only if
    requested), and `nan` in every field of the others: simulated and closed-form alike."""
    rate_u1, rate_u2, rate_sum = rates() if "rates" in metrics else (nan, nan, nan)
    outage_u1, outage_u2 = outages() if "outage" in metrics else (nan, nan)
    return MetricSet(rate_u1, rate_u2, rate_sum, outage_u1, outage_u2, jain() if "jain" in metrics else nan)


def _metric_set(blocks: list[tuple], metrics: tuple[str, ...]) -> MetricSet:
    """One scheme's metrics from its per-block _scheme_sums, reduced with math.fsum in block order.

    The means and the variances of the mean rates are computed once; the
    rates and their standard errors, the outage frequencies and Jain's
    index of the mean rates, with its delta-method standard error, are
    taken from them.
    """
    counts, r1, r2, r1sq, r2sq, r1r2, outs1, outs2 = zip(*blocks)
    n, count_out1, count_out2 = sum(counts), sum(outs1), sum(outs2)
    s1, s2, q1, q2, s12 = map(math.fsum, (r1, r2, r1sq, r2sq, r1r2))
    m1, m2 = s1 / n, s2 / n
    if n > 1:
        var1 = max((q1 - n * m1 * m1) / (n - 1), 0.0) / n
        var2 = max((q2 - n * m2 * m2) / (n - 1), 0.0) / n
        var_sum = max((q1 + q2 + 2.0 * s12 - n * (m1 + m2) ** 2) / (n - 1), 0.0) / n
    else:
        var1 = var2 = var_sum = 0.0

    def outage(count: int) -> MetricEstimate:
        p = count / n
        return MetricEstimate(p, math.sqrt(p * (1.0 - p) / n), n)

    def jain() -> MetricEstimate:
        se = 0.0
        if n > 1 and (m1 != 0.0 or m2 != 0.0):
            cov = ((s12 - n * m1 * m2) / (n - 1)) / n
            norm = (m1 * m1 + m2 * m2) ** 2
            d1 = (m1 + m2) * m2 * (m2 - m1) / norm
            d2 = (m1 + m2) * m1 * (m1 - m2) / norm
            se = math.sqrt(max(d1 * d1 * var1 + 2.0 * d1 * d2 * cov + d2 * d2 * var2, 0.0))
        return MetricEstimate(jain_index(m1, m2), se, n)

    return _masked_set(
        metrics,
        MetricEstimate(math.nan, 0.0, n),
        rates=lambda: tuple(
            MetricEstimate(m, math.sqrt(v), n) for m, v in ((m1, var1), (m2, var2), (m1 + m2, var_sum))
        ),
        outages=lambda: (outage(count_out1), outage(count_out2)),
        jain=jain,
    )


def estimate_metrics(
    params: SystemParams, schemes: tuple[str, ...], trials: int, seed: int
) -> dict[str, MetricSet]:
    """Every metric of each scheme from one simulation over shared realizations.

    Each block is drawn once for all the schemes, and a scheme's metrics do
    not depend on the others in the call.  The near user is in outage if it
    fails the far-user or its own target, the far user if the relay or the
    far user fails the far-user target: always, past the a2/a1 cap.
    """
    per_block = _simulate(params, schemes, trials, (seed,))
    return {scheme: _metric_set(per_block[scheme], KNOWN_METRICS) for scheme in schemes}


def estimate_rates(
    params: SystemParams, scheme: str, trials: int, seed: int
) -> tuple[MetricEstimate, MetricEstimate, MetricEstimate]:
    """(rate_u1, rate_u2, rate_sum) of estimate_metrics for one scheme."""
    metrics = estimate_metrics(params, (scheme,), trials, seed)[scheme]
    return metrics.rate_u1, metrics.rate_u2, metrics.rate_sum


def estimate_outage(
    params: SystemParams, scheme: str, trials: int, seed: int
) -> tuple[MetricEstimate, MetricEstimate]:
    """(outage_u1, outage_u2) of estimate_metrics for one scheme."""
    metrics = estimate_metrics(params, (scheme,), trials, seed)[scheme]
    return metrics.outage_u1, metrics.outage_u2


def _power_points(params: SystemParams, sweep: SweepSpec):
    """(index, dB, validated parameters) for each point of the sweep's power grid."""
    for p_idx, power_db in enumerate(sweep.power_db):
        relay_db = power_db if sweep.rho_r_db is None else sweep.rho_r_db[p_idx]
        yield p_idx, power_db, validate(
            replace(params, rho_s=db_to_linear(power_db), rho_r=db_to_linear(relay_db))
        )


def run_sweep(params: SystemParams, sweep: SweepSpec) -> list[SweepRow]:
    """Monte Carlo sweep over the power grid; one row per (point, scheme).

    Power points set rho_s and rho_r jointly unless the sweep overrides
    the relay power.  All schemes at a point share realizations.
    """
    rows = []
    workspace = _Workspace(params, min(DEFAULT_BLOCK_SIZE, sweep.trials))
    for p_idx, power_db, run_params in _power_points(params, sweep):
        per_block = _simulate(run_params, sweep.schemes, sweep.trials, (sweep.seed, p_idx), workspace=workspace)
        rows.extend(
            SweepRow(power_db=power_db, scheme=scheme, kind=MONTE_CARLO, trials=sweep.trials,
                     metrics=_metric_set(per_block[scheme], sweep.metrics))
            for scheme in sweep.schemes
        )
    return rows


# Schemes whose statistics the closed forms describe, and the far-user rule of each.
ANALYTIC_SCHEMES = ("max_u1_analytic", "max_u2_decoupled")
_FAR_RULES = {"max_u1_analytic": "max_u1", "max_u2_decoupled": "max_u2"}


def _analytic(value: float) -> MetricEstimate:
    return MetricEstimate(value, 0.0, 0, kind=ANALYTIC)  # a closed form has no standard error and no trials


def _closed_form_set(metrics: tuple[str, ...], r1, far_rate, o1, o2) -> MetricSet | analytic.NonConvergedError:
    """One parameter set's MetricSet from its near-user rate r1, far-user QuadratureResult and
    outages o1, o2 (None where the metrics need none), or its far-user rate's NonConvergedError."""
    if isinstance(far_rate, analytic.NonConvergedError):  # far_rate is None if the metrics need none
        return far_rate
    return _masked_set(
        metrics,
        _analytic(math.nan),
        rates=lambda: (_analytic(r1), _analytic(far_rate.value), _analytic(r1 + far_rate.value)),
        outages=lambda: (_analytic(o1), _analytic(o2)),
        jain=lambda: _analytic(jain_index(r1, far_rate.value)),
    )


def _closed_form_sets(params_seq: list[SystemParams], scheme: str, metrics: tuple[str, ...]) -> Iterator:
    """_closed_form_set of one of ANALYTIC_SCHEMES at each parameter set, in order.

    Each closed form the metrics need is evaluated for all the sets in one
    call; the MetricSets are made as they are iterated.
    """
    if scheme not in _FAR_RULES:
        raise ValueError(f"no closed forms for scheme {scheme!r}; have {ANALYTIC_SCHEMES}")
    rule = _FAR_RULES[scheme]
    rates_u1 = far_rates = outages_u1 = outages_u2 = [None] * len(params_seq)
    if "rates" in metrics or "jain" in metrics:
        far_rates = analytic.far_user_rates(params_seq, rule)
        rates_u1 = analytic.near_user_rates(params_seq, rule)
    if "outage" in metrics:
        outages_u1 = analytic.near_user_outages(params_seq, rule)
        outages_u2 = analytic.far_user_outages(params_seq, rule)
    return (_closed_form_set(metrics, *values) for values in zip(rates_u1, far_rates, outages_u1, outages_u2))


def analytic_metric_set(params: SystemParams, scheme: str, metrics: tuple[str, ...]) -> MetricSet:
    """Closed-form MetricSet for one of ANALYTIC_SCHEMES."""
    (metric_set,) = _closed_form_sets([params], scheme, metrics)
    if isinstance(metric_set, analytic.NonConvergedError):
        raise metric_set
    return metric_set


def analytic_sweep(params: SystemParams, sweep: SweepSpec) -> tuple[list[SweepRow], list[str]]:
    """Closed-form sweep rows for the schemes that have closed forms, and notes.

    Each closed form of each scheme is evaluated over the whole power grid
    in one call.  A (point, scheme) whose far-user rate does not converge
    gets a row of NaNs and a NON_CONVERGED note; the sweep goes on with the
    other rows.
    """
    points = list(_power_points(params, sweep))
    sets = {scheme: _closed_form_sets([p for _, _, p in points], scheme, sweep.metrics) for scheme in sweep.schemes}
    rows, notes = [], []
    for _, power_db, _ in points:
        for scheme in sweep.schemes:
            metrics = next(sets[scheme])
            if isinstance(metrics, analytic.NonConvergedError):
                notes.append(f"NON_CONVERGED at {power_db} dB / {scheme}: {metrics}")
                metrics = _masked_set((), _analytic(math.nan))
            rows.append(
                SweepRow(power_db=power_db, scheme=scheme, kind=ANALYTIC, trials=0, metrics=metrics)
            )
    return rows, notes


CSV_COLUMNS = (
    "power_db",
    "scheme",
    "rate_u1",
    "rate_u1_se",
    "rate_u2",
    "rate_u2_se",
    "rate_sum",
    "outage_u1",
    "outage_u1_se",
    "outage_u2",
    "outage_u2_se",
    "jain",
    "trials",
    "kind",
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(rows: list[SweepRow], target) -> None:
    """Write sweep rows with full-precision decimals; byte-stable for a seed."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    handle = open(target, "w", newline="") if own else target
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            m = row.metrics
            writer.writerow(
                [
                    _fmt(row.power_db),
                    row.scheme,
                    _fmt(m.rate_u1.value),
                    _fmt(m.rate_u1.std_error),
                    _fmt(m.rate_u2.value),
                    _fmt(m.rate_u2.std_error),
                    _fmt(m.rate_sum.value),
                    _fmt(m.outage_u1.value),
                    _fmt(m.outage_u1.std_error),
                    _fmt(m.outage_u2.value),
                    _fmt(m.outage_u2.std_error),
                    _fmt(m.jain_index.value),
                    str(row.trials),
                    row.kind,
                ]
            )
    finally:
        if own:
            handle.close()

