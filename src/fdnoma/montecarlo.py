"""Monte Carlo estimation of ergodic rates, outage and fairness.

It only simulates; its rows and their CSV are in results, the closed
forms and their sweep in analytic.

Trials are drawn in fixed-size blocks, one RNG stream per block, keyed
(seed, block) at every power point.  A simulation runs over a power grid
of one point or many, blocks outside and points inside: a block is drawn
once, as a GainBatch of unit-mean draws that each point reads at its own
mean gains (GainBatch.at), and the stage-wise ORDER_SCHEMES choose and
gather their chosen draws once per block for every point (see _run_block).
So a sweep row equals estimate_metrics at its point, bit for bit, and
every scheme at every point sees the same channel realizations (common
random numbers), which makes the per-realization dominance relations
between schemes hold exactly in the outputs.

Whole blocks run on up to two threads (see _simulate), and one reduction,
_metric_set, turns a scheme's per-block partial sums at a point into all
its metrics with math.fsum in block order, so results are byte-identical
for any worker count.  The rates and outage frequencies carry standard
errors; the sum rate and Jain's index carry math.nan, not estimated.
estimate_rates and estimate_outage are views of estimate_metrics for one
scheme, the one-point case of the same loop.
Each thread running blocks holds one buffer set (_buffer_set) for the
length of a sweep or estimator call: a gain batch (about 5.5 MiB at 4x4x4
antennas), a set of gather, draw and SINR buffers (SinrBuffers, 1.5 MiB at
16,384 trials, shared by the schemes in turn) and one choice slot per scheme.
Blocks are drawn, selected, gathered and reduced in place, and the sets
are freed when the call returns.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .channel import DEFAULT_BLOCK_SIZE, GROUPS, GainBatch, blocks, draw_batch, empty_batch
from .config import KNOWN_METRICS, ConfigError, MeanGains, PowerGrid, SweepSpec, SystemParams, check_run, check_scheme
from .config import power_points, thresholds
from .results import CSV_COLUMNS  # noqa: F401  perfbench/workloads.py imports it from here
from .results import MONTE_CARLO, MetricEstimate, MetricSet, SweepRow, jain_index, masked_set
from .selection import JOINT_SCHEMES, NEEDS_RNG, ORDER_SCHEMES, joint_search, select_batch
from .sinr import cross_sinr, near_sinr, rate_bits, relay_sinr

_RANDOM_SALT = 0x52414E44


class SinrBuffers:
    """Gather, draw and SINR buffers of gather_draws and read_sinrs for up to `capacity` rows (1.5 MiB at 16,384)."""

    def __init__(self, capacity: int):
        self.rows = np.arange(capacity)
        self.index = np.empty(capacity, dtype=np.intp)
        self.draws = np.empty((5, capacity))
        self.values = np.empty((5, capacity))


def gather_draws(
    batch: GainBatch, ii: np.ndarray, jj: np.ndarray, kk: np.ndarray, params: SystemParams, out: SinrBuffers
) -> np.ndarray:
    """The unit draws under the chosen (i, j, k) of every row of the batch, one row of out.draws per group.

    The rows are in GROUPS order, that of batch.means, and are the same at
    every point that reads the batch: a choice made once is gathered once.
    """
    n, m_b, m_r, m_t = batch.count, params.m_b, params.m_r, params.m_t
    # A flat index out of its axis would read a neighbouring row.
    for axis, chosen, size in (("i", ii, m_b), ("j", jj, m_r), ("k", kk, m_t)):
        if np.min(chosen) < 0 or np.max(chosen) >= size:
            raise IndexError(f"chosen {axis} out of range for {size} antennas")
    rows, index, draws = out.rows[:n], out.index[:n], out.draws[:, :n]
    axes = (((ii, m_b), (jj, m_r)), ((ii, m_b),), ((kk, m_t),), ((kk, m_t),), ((jj, m_r), (kk, m_t)))
    for name, into, group_axes in zip(GROUPS, draws, axes):
        # draws[row, i, ...] through the row-major flat index (row * n_i + i) * ..., taken straight into `into`
        np.copyto(index, rows)
        for chosen, size in group_axes:
            np.multiply(index, size, out=index)
            np.add(index, chosen, out=index)
        np.take(getattr(batch, name).reshape(-1), index, out=into, mode="clip")
    return draws


def read_sinrs(draws: np.ndarray, means: MeanGains, params: SystemParams, out: SinrBuffers) -> tuple[np.ndarray, ...]:
    """Per-realization SINRs at the mean gains `means`, computed in out.values from gather_draws' rows.

    Returns (gamma_1, gamma_12, gamma_r, gamma_2, g_ru2): the near user's
    own SINR, the far-user symbol at the near user, at the relay, end to
    end (the minimum of the last three), and the relay-to-far-user SNR.  A
    gathered draw times its group's mean is the gain, so rows gathered once
    are read at every point.
    """
    a1, a2, n = params.a1, params.a2, draws.shape[1]
    gamma_1, gamma_12, gamma_r, gamma_2, g_ru2 = out.values[:, :n]
    d_br, d_su1, d_ru1, d_ru2, d_si = draws
    lam_br, lam_su1, lam_ru1, lam_ru2, lam_si = means
    # gamma_2 and g_ru2 hold gains until their own values are due; gamma_1 is scratch.
    g_br, g_si = np.multiply(d_br, lam_br, out=gamma_2), np.multiply(d_si, lam_si, out=g_ru2)
    relay_sinr(g_br, g_si, a1, a2, out=gamma_r, scratch=gamma_1)
    g_su1, g_ru1 = np.multiply(d_su1, lam_su1, out=gamma_2), np.multiply(d_ru1, lam_ru1, out=g_ru2)
    cross_sinr(g_su1, g_ru1, a1, a2, out=gamma_12, scratch=gamma_1)
    near_sinr(g_su1, g_ru1, a1, out=gamma_1, scratch=g_ru1)
    np.multiply(d_ru2, lam_ru2, out=g_ru2)
    np.minimum(gamma_12, gamma_r, out=gamma_2)
    np.minimum(gamma_2, g_ru2, out=gamma_2)
    return gamma_1, gamma_12, gamma_r, gamma_2, g_ru2


def _scheme_sums(draws: np.ndarray, means: MeanGains, params: SystemParams, thresholds: tuple, out: SinrBuffers) -> tuple:
    """One scheme's partial sums over a block at one point, from its gathered draws (gather_draws).

    Returns (trials, sums of r1, r2, r1^2 and r2^2, the two outage counts):
    what the rates, their standard errors, the outage frequencies and Jain's
    index need.  The SINRs at `means`, the rates and squares are computed in
    `out`.
    """
    theta1, theta2 = thresholds
    n = draws.shape[1]
    gamma_1, gamma_12, gamma_r, gamma_2, g_ru2 = read_sinrs(draws, means, params, out)
    out1 = n - int(np.count_nonzero((gamma_12 > theta2) & (gamma_1 > theta1)))
    out2 = n - int(np.count_nonzero((gamma_r > theta2) & (g_ru2 > theta2)))
    r1, r2 = rate_bits(gamma_1, out=gamma_1), rate_bits(gamma_2, out=gamma_2)
    # gamma_12 is spent, so it holds each square in turn
    squares = (float(np.sum(np.multiply(r, r, out=gamma_12))) for r in (r1, r2))
    return (n, float(np.sum(r1)), float(np.sum(r2)), *squares, out1, out2)


def _buffer_set(params: SystemParams, capacity: int, schemes: int) -> tuple[GainBatch, SinrBuffers, np.ndarray]:
    """One thread's block buffers for up to `capacity` trials, reused from block to block.

    A gain batch, a set of SINR buffers and a (schemes, 3, capacity) choice
    array, each scheme's (i, j, k) in the smallest unsigned type that indexes
    the antennas.
    """
    index = np.min_scalar_type(max(params.m_b, params.m_r, params.m_t) - 1)
    return empty_batch(params, capacity), SinrBuffers(capacity), np.empty((schemes, 3, capacity), dtype=index)


def _rng(scheme: str, entropy: tuple[int, ...]) -> np.random.Generator | None:
    """The block's selection stream of a scheme that needs one, keyed by the block's entropy."""
    if scheme not in NEEDS_RNG:
        return None
    return np.random.default_rng(np.random.SeedSequence((*entropy, _RANDOM_SALT)))


def _run_block(
    params: SystemParams,
    points: tuple[MeanGains, ...],
    schemes: tuple[str, ...],
    entropy: tuple[int, ...],
    count: int,
    buffers: tuple[GainBatch, SinrBuffers, np.ndarray],
) -> list[dict[str, tuple]]:
    """Draw one block into a thread's _buffer_set and return, per point, each scheme's partial sums.

    A point is its mean gains, at which it reads the block's draws (batch.at);
    params, the grid's, gives every other field.  The ORDER_SCHEMES read no
    mean, so each selects once and gathers its chosen draws once
    (gather_draws), and every point reads those draws at its own means; max_u1
    and the joint searches read ratios across groups and select and gather at
    each point, the joint searches in one joint_search call that shares a
    far-user grid per tile.  Each scheme's choice has its slot in the set's
    choice array, and every scheme's draws and SINRs, one after another, are
    in the set's one SinrBuffers.
    """
    gains, sinrs, choices = buffers
    theta, drawn = thresholds(params), draw_batch(params, entropy, count, gains)
    slots = {scheme: tuple(slot[:, :count]) for scheme, slot in zip(schemes, choices)}
    joint = {scheme: slots[scheme] for scheme in JOINT_SCHEMES if scheme in schemes}
    sums = [{} for _ in points]

    def reduce(scheme: str, batch: GainBatch, at: range) -> None:
        draws = gather_draws(batch, *slots[scheme], params, sinrs)
        for p in at:
            sums[p][scheme] = _scheme_sums(draws, points[p], params, theta, sinrs)

    for scheme in schemes:
        if scheme in ORDER_SCHEMES:  # one choice and one gather serve every point
            select_batch(scheme, drawn, params, _rng(scheme, entropy), slots[scheme])
            reduce(scheme, drawn, range(len(points)))
    for p, means in enumerate(points):
        batch = drawn.at(means)
        if joint:
            joint_search(batch, params, joint)
        for scheme in schemes:
            if scheme not in ORDER_SCHEMES:
                if scheme not in joint:
                    select_batch(scheme, batch, params, _rng(scheme, entropy), slots[scheme])
                reduce(scheme, batch, range(p, p + 1))
    return sums


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate(
    grid: PowerGrid,
    schemes: tuple[str, ...],
    trials: int,
    entropy_base: tuple[int, ...],
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int | None = None,
) -> list[dict[str, list[tuple]]]:
    """Per point of grid.gains, read as they are, each scheme's _scheme_sums per block, in block order.

    Every scheme at every point sees the same blocks: block b is drawn once,
    from the stream (*entropy_base, b), as _run_block says.  Blocks run on
    `workers` threads, min(2, available CPUs) by default, one block in
    flight per thread; numpy releases the GIL in the draws and the array
    kernels.  The partial sums are kept in block order, so _metric_set's
    reduction is bit-identical for any worker count.  One worker, or a run of
    one block, runs every block in the calling thread.  Each block takes a
    buffer set of min(block_size, trials) trials from a free list, or makes
    one, and gives it back, so there is at most one set per thread.
    block_size is part of each block's stream key, so the public estimators
    and run_sweep keep it at DEFAULT_BLOCK_SIZE.
    """
    params, points = grid.params, grid.gains
    check_run(trials, entropy_base[0])
    if not schemes:
        raise ConfigError("SWEEP_EMPTY", "scheme list must be non-empty")
    for scheme in schemes:
        check_scheme(scheme)
    per_block = [{scheme: [] for scheme in schemes} for _ in points]
    unique = tuple(per_block[0])  # a repeated scheme is simulated once
    free = []  # the buffer sets of threads between blocks

    def run(block: tuple[int, int, int]) -> list[dict[str, tuple]]:
        index, _, count = block
        try:
            buffers = free.pop()  # atomic, so no two threads take the same set
        except IndexError:
            buffers = _buffer_set(params, min(block_size, trials), len(unique))
        try:
            return _run_block(params, points, unique, (*entropy_base, index), count, buffers)
        finally:
            free.append(buffers)

    def collect(partials) -> list[dict[str, list[tuple]]]:
        for block in partials:  # in block order
            for point, sums in zip(per_block, block):
                for scheme, partial in sums.items():
                    point[scheme].append(partial)
        return per_block

    layout = blocks(trials, block_size)
    workers = min(2, _available_cpus()) if workers is None else workers
    if workers < 2 or trials <= block_size:
        return collect(map(run, layout))
    # Imported here, so a run that needs no thread does not load the thread machinery.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return collect(pool.map(run, layout))


def _metric_set(blocks: list[tuple], metrics: tuple[str, ...]) -> MetricSet:
    """One scheme's metrics from its per-block _scheme_sums, reduced with math.fsum in block order.

    The rates carry the standard errors of their means and the outage
    frequencies binomial ones; the sum rate and Jain's index of the mean
    rates carry math.nan, as no output reads a standard error of theirs.
    """
    counts, r1, r2, r1sq, r2sq, outs1, outs2 = zip(*blocks)
    n, count_out1, count_out2 = sum(counts), sum(outs1), sum(outs2)
    s1, s2, q1, q2 = map(math.fsum, (r1, r2, r1sq, r2sq))
    m1, m2 = s1 / n, s2 / n

    def rate(mean: float, squares: float) -> MetricEstimate:
        var = max((squares - n * mean * mean) / (n - 1), 0.0) / n if n > 1 else 0.0
        return MetricEstimate(mean, math.sqrt(var), n)

    def outage(count: int) -> MetricEstimate:
        p = count / n
        return MetricEstimate(p, math.sqrt(p * (1.0 - p) / n), n)

    return masked_set(
        metrics,
        MetricEstimate(math.nan, 0.0, n),
        rates=lambda: (rate(m1, q1), rate(m2, q2), MetricEstimate(m1 + m2, math.nan, n)),
        outages=lambda: (outage(count_out1), outage(count_out2)),
        jain=lambda: MetricEstimate(jain_index(m1, m2), math.nan, n),
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
    per_block = _simulate(PowerGrid.at(params), schemes, trials, (seed,))[0]
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


def run_sweep(params: SystemParams, sweep: SweepSpec) -> list[SweepRow]:
    """Monte Carlo sweep over the power grid; one row per (point, scheme).

    Power points set rho_s and rho_r jointly unless the sweep overrides
    the relay power.  The whole grid is checked before the first block is
    drawn.  Every point reads the same blocks, keyed (seed, block) as in
    estimate_metrics, so each row equals estimate_metrics(point params,
    schemes, trials, seed) at its point, bit for bit, and all schemes at
    all points share realizations.
    """
    grid = power_points(params, sweep)
    per_point = _simulate(grid, sweep.schemes, sweep.trials, (sweep.seed,))
    return [
        SweepRow(power_db=power_db, scheme=scheme, kind=MONTE_CARLO, trials=sweep.trials,
                 metrics=_metric_set(per_block[scheme], sweep.metrics))
        for power_db, per_block in zip(sweep.power_db, per_point)
        for scheme in sweep.schemes
    ]
