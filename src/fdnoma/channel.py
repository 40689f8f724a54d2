"""Rayleigh-fading channel draws exposed as per-antenna power gains.

Only squared envelopes enter the SINR expressions, so gains are drawn
directly as exponentials (|CN(0, v)|^2 is exponential with mean v).
Streams are keyed by (seed, stream) so trials reproduce independently of
scheduling.  A gain is a unit-mean draw times its group's mean, which
holds the transmit SNR: a GainBatch is a stream's unit draws and the mean
gains of the point that reads them, and batch.at(means) reads the same
draws at another point's.  A positive mean keeps the order of a group's
draws, and rounding is monotone, so scaling can make two gains equal but
never swap them: a pick within one group follows the draws.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import MeanGains, SystemParams, check_run, mean_gains


@dataclass(frozen=True)
class GainBatch:
    """Trial-major stacks of `count` realizations from one stream, and the mean gain of each group.

    A gain is its group's draw times its mean in `means`, a product every
    reader takes after it gathers; with unit means the draws are the gains.
    g_br[t, i, j]: BS antenna i to relay receive antenna j; g_si[t, j, k]:
    relay transmit antenna k into receive antenna j, in trial t.
    """

    g_br: np.ndarray  # (count, m_b, m_r)
    g_su1: np.ndarray  # (count, m_b)
    g_ru1: np.ndarray  # (count, m_t)
    g_ru2: np.ndarray  # (count, m_t)
    g_si: np.ndarray  # (count, m_r, m_t)
    count: int
    means: MeanGains = MeanGains(1.0, 1.0, 1.0, 1.0, 1.0)

    def rows(self, start: int, stop: int) -> GainBatch:
        """The realizations start:stop (clipped to the batch), as views."""
        stop = min(stop, self.count)
        return GainBatch(*(getattr(self, name)[start:stop] for name in GROUPS), stop - start, self.means)

    def at(self, means: MeanGains) -> GainBatch:
        """The same draws read at other mean gains: another point of the power grid they were drawn for."""
        return replace(self, means=means)


GROUPS = ("g_br", "g_su1", "g_ru1", "g_ru2", "g_si")


DEFAULT_BLOCK_SIZE = 1 << 14


def blocks(trials: int, block_size: int = DEFAULT_BLOCK_SIZE):
    """Yield (index, offset, count) for each block of the simulator's trial layout.

    Block `index` holds trials offset .. offset + count - 1 and is drawn
    as one batch from its own stream, keyed by the block index.
    """
    for index, offset in enumerate(range(0, trials, block_size)):
        yield index, offset, min(block_size, trials - offset)


def _generator(entropy: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def empty_batch(params: SystemParams, count: int) -> GainBatch:
    """Uninitialized gain buffers for up to `count` trials, to draw into with draw_batch."""
    m_b, m_r, m_t = params.m_b, params.m_r, params.m_t
    shapes = ((m_b, m_r), (m_b,), (m_t,), (m_t,), (m_r, m_t))
    return GainBatch(*(np.empty((count, *shape)) for shape in shapes), count=count)


def draw_batch(
    params: SystemParams, entropy: tuple[int, ...], count: int, into: GainBatch | None = None
) -> GainBatch:
    """Draw `count` i.i.d. realizations from the stream keyed by `entropy`, at params' mean gains.

    The batch holds unit-mean draws and the means of params.  Group order
    (g_br, g_su1, g_ru1, g_ru2, g_si) is fixed so a stream always yields the
    same draws for the same count.  A group of mean 0 (k1 = 0) is drawn as
    zeros, which it is at every point, but its draws are still consumed,
    keeping the remaining groups aligned across parameter sets.  The batch
    is drawn into the first `count` rows of `into`, an empty_batch of these
    antenna counts, or into fresh buffers; either way it holds the same bits.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    shape = (params.m_b, params.m_r, params.m_t)
    if into is None:
        into = empty_batch(params, count)
    elif into.count < count or into.g_br.shape[1:] + into.g_si.shape[2:] != shape:
        raise ValueError(f"buffers {into.g_br.shape[:2] + into.g_si.shape[1:]} cannot take {count} trials at {shape}")
    rng = _generator(entropy)
    batch = replace(into.rows(0, count), means=mean_gains(params))
    for name, lam in zip(GROUPS, batch.means):
        group = getattr(batch, name)
        rng.standard_exponential(out=group)
        if lam == 0.0:
            group[...] = 0.0
    return batch


def dump_columns(params: SystemParams) -> list[str]:
    """Fixed column order of the realization dump: the GROUPS in order, each a row-major matrix."""
    empty = empty_batch(params, 0)
    return ["trial"] + [
        "_".join((name, *map(str, index)))
        for name in GROUPS
        for index in np.ndindex(getattr(empty, name).shape[1:])
    ]


def dump_realizations(params: SystemParams, seed: int, trials: int, path: str | Path) -> None:
    """Write the gains of one realization per row, in the simulator's block layout.

    Row t is trial t of a simulation with this seed at params' powers:
    of estimate_rates(params, scheme, trials, seed), say, or of the row of
    a sweep whose power point these params are, since every point of a
    sweep reads the streams of its seed.  Block b is the batch
    draw_batch(params, (seed, b), count) of DEFAULT_BLOCK_SIZE trials,
    fewer in the last block, each draw times its group's mean.  Bad
    arguments raise the estimators' ConfigError before the file opens.
    """
    check_run(trials, seed)
    columns = dump_columns(params)
    # %.17g round-trips every float; \r\n is the csv module's line ending
    fmt = ["%d"] + ["%.17g"] * (len(columns) - 1)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(columns)
        for index, offset, count in blocks(trials):
            batch = draw_batch(params, (seed, index), count)
            trial = np.arange(offset, offset + count)[:, None]
            gains = (getattr(batch, name).reshape(count, -1) * lam for name, lam in zip(GROUPS, batch.means))
            table = np.concatenate([trial, *gains], axis=1)
            np.savetxt(handle, table, fmt=fmt, delimiter=",", newline="\r\n")
