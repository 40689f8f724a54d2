"""Rayleigh-fading channel draws exposed as per-antenna power gains.

Only squared envelopes enter the SINR expressions, so gains are drawn
directly as exponentials (|CN(0, v)|^2 is exponential with mean v) with
the transmit SNR folded into the mean.  Streams are keyed by
(seed, stream) so trials reproduce independently of scheduling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SystemParams, mean_gains


@dataclass(frozen=True)
class GainBatch:
    """Trial-major stacks of `count` realizations from one stream.

    Power gains with the SNR folded in.  g_br[t, i, j]: BS antenna i to
    relay receive antenna j; g_si[t, j, k]: relay transmit antenna k into
    receive antenna j, in trial t.
    """

    g_br: np.ndarray  # (count, m_b, m_r)
    g_su1: np.ndarray  # (count, m_b)
    g_ru1: np.ndarray  # (count, m_t)
    g_ru2: np.ndarray  # (count, m_t)
    g_si: np.ndarray  # (count, m_r, m_t)
    count: int


DEFAULT_BLOCK_SIZE = 1 << 16


def blocks(trials: int, block_size: int = DEFAULT_BLOCK_SIZE):
    """Yield (index, offset, count) for each block of the simulator's trial layout.

    Block `index` holds trials offset .. offset + count - 1 and is drawn
    as one batch from its own stream, keyed by the block index.
    """
    for index, offset in enumerate(range(0, trials, block_size)):
        yield index, offset, min(block_size, trials - offset)


def _generator(entropy: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def draw_batch(params: SystemParams, entropy: tuple[int, ...], count: int) -> GainBatch:
    """Draw `count` i.i.d. realizations from the stream keyed by `entropy`.

    Group order (g_br, g_su1, g_ru1, g_ru2, g_si) is fixed so a stream
    always yields the same batch for the same count.  Draws are consumed
    even when k1 = 0 (the zero mean just scales them away), keeping the
    remaining groups aligned across parameter sets.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    gains = mean_gains(params)
    rng = _generator(entropy)

    def group(lam: float, shape: tuple[int, ...]) -> np.ndarray:
        # The same products as lam * draws, scaled in place whether or not
        # numpy would have elided the temporary.
        g = rng.standard_exponential(shape)
        g *= lam
        return g

    return GainBatch(
        g_br=group(gains.lam_br, (count, params.m_b, params.m_r)),
        g_su1=group(gains.lam_su1, (count, params.m_b)),
        g_ru1=group(gains.lam_ru1, (count, params.m_t)),
        g_ru2=group(gains.lam_ru2, (count, params.m_t)),
        g_si=group(gains.lam_si, (count, params.m_r, params.m_t)),
        count=count,
    )


def dump_columns(params: SystemParams) -> list[str]:
    """Fixed column order of the realization dump (row-major matrices)."""
    cols = ["trial"]
    cols += [f"g_br_{i}_{j}" for i in range(params.m_b) for j in range(params.m_r)]
    cols += [f"g_su1_{i}" for i in range(params.m_b)]
    cols += [f"g_ru1_{k}" for k in range(params.m_t)]
    cols += [f"g_ru2_{k}" for k in range(params.m_t)]
    cols += [f"g_si_{j}_{k}" for j in range(params.m_r) for k in range(params.m_t)]
    return cols


def dump_realizations(params: SystemParams, seed: int, trials: int, path: str | Path) -> None:
    """Write one realization per row, in the simulator's block layout.

    Row t is trial t of a single-scheme simulation with this seed (for
    example estimate_rates(params, scheme, trials, seed)): block b is the
    batch draw_batch(params, (seed, b), count) of DEFAULT_BLOCK_SIZE
    trials, fewer in the last block.
    """
    columns = dump_columns(params)
    # %.17g round-trips every float; \r\n is the csv module's line ending
    fmt = ["%d"] + ["%.17g"] * (len(columns) - 1)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(columns)
        for index, offset, count in blocks(trials):
            batch = draw_batch(params, (seed, index), count)
            table = np.concatenate(
                [
                    np.arange(offset, offset + count)[:, None],
                    batch.g_br.reshape(count, -1),
                    batch.g_su1,
                    batch.g_ru1,
                    batch.g_ru2,
                    batch.g_si.reshape(count, -1),
                ],
                axis=1,
            )
            np.savetxt(handle, table, fmt=fmt, delimiter=",", newline="\r\n")
