"""Antenna-selection schemes.

Two proposed schemes (near-user first and far-user e2e maximization),
the decoupled stage-wise variants the closed-form analysis characterizes,
an exhaustive sum-rate optimum, and a random baseline.  Ties always break
to the lowest index (lexicographic over (i, j, k) for joint searches).

Scalar functions take one ChannelRealization; batch_* variants operate on
GainBatch stacks and return (i, j, k) index arrays.  Both compute the
same objectives with the same formula kernels, so they agree exactly.

The two joint batch searches (max_u2_exhaustive, optimum_sumrate) build a
per-trial (m_b, m_r, m_t) grid.  They run over row tiles of the batch,
sized so that one tile's grid is about 2 MiB of float64 and its
temporaries stay in cache.  Every grid cell and every per-row argmax
depends on its own row only, so tiling gives the same floats, the same
lowest-flat-index tie break and the same indices as one full-batch grid.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, GainBatch
from .config import SystemParams
from .sinr import AntennaChoice, cross_sinr, near_sinr, rate_bits, relay_sinr


def select_max_u1(real: ChannelRealization, params: SystemParams) -> AntennaChoice:
    """Maximize the near-user SINR, then the relay SINR given that choice.

    The first stage is separable: the strongest BS-to-near-user antenna
    and the weakest interfering relay antenna.  The second stage picks the
    relay receive antenna with the self-interference term included.
    """
    i = int(np.argmax(real.g_su1))
    k = int(np.argmin(real.g_ru1))
    j = int(np.argmax(relay_sinr(real.g_br[i, :], real.g_si[:, k], params.a1, params.a2)))
    return AntennaChoice(i, j, k)


def select_max_u1_analytic(real: ChannelRealization, params: SystemParams) -> AntennaChoice:
    """As select_max_u1 but the receive stage maximizes the BS-relay gain alone.

    Ignoring self-interference at that stage decouples the receive antenna
    from the relay transmit antenna; this is the variant the closed forms
    describe.
    """
    i = int(np.argmax(real.g_su1))
    k = int(np.argmin(real.g_ru1))
    j = int(np.argmax(real.g_br[i, :]))
    return AntennaChoice(i, j, k)


def _e2e_grid(real: ChannelRealization, params: SystemParams) -> np.ndarray:
    """End-to-end far-user SINR for every (i, j, k) triple."""
    g12 = cross_sinr(real.g_su1[:, None], real.g_ru1[None, :], params.a1, params.a2)  # (mb, mt)
    gr = relay_sinr(real.g_br[:, :, None], real.g_si[None, :, :], params.a1, params.a2)  # (mb, mr, mt)
    return np.minimum(np.minimum(g12[:, None, :], gr), real.g_ru2[None, None, :])


def select_max_u2_exhaustive(real: ChannelRealization, params: SystemParams) -> AntennaChoice:
    """Joint search over all (i, j, k) for the best far-user e2e SINR."""
    grid = _e2e_grid(real, params)
    i, j, k = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return AntennaChoice(int(i), int(j), int(k))


def select_max_u2_decoupled(real: ChannelRealization, params: SystemParams) -> AntennaChoice:
    """Stage-wise far-user selection: best relay-to-far link, then least
    self-interference into it, then strongest BS feed for that receive
    antenna.  This is the variant the closed forms describe."""
    k = int(np.argmax(real.g_ru2))
    j = int(np.argmin(real.g_si[:, k]))
    i = int(np.argmax(real.g_br[:, j]))
    return AntennaChoice(i, j, k)


def select_optimum_sumrate(real: ChannelRealization, params: SystemParams) -> AntennaChoice:
    """Joint search maximizing the instantaneous two-user sum rate."""
    r1 = rate_bits(near_sinr(real.g_su1[:, None], real.g_ru1[None, :], params.a1))  # (mb, mt)
    r2 = rate_bits(_e2e_grid(real, params))  # (mb, mr, mt)
    total = r1[:, None, :] + r2
    i, j, k = np.unravel_index(int(np.argmax(total)), total.shape)
    return AntennaChoice(int(i), int(j), int(k))


def select_random(real: ChannelRealization, params: SystemParams, rng: np.random.Generator) -> AntennaChoice:
    """Uniform independent indices at BS and relay input/output."""
    return AntennaChoice(
        int(rng.integers(params.m_b)),
        int(rng.integers(params.m_r)),
        int(rng.integers(params.m_t)),
    )


# Batch variants: index arrays of shape (count,) per axis.

def batch_max_u1(batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.arange(batch.count)
    ii = np.argmax(batch.g_su1, axis=1)
    kk = np.argmin(batch.g_ru1, axis=1)
    g_br_row = batch.g_br[rows, ii, :]  # (count, m_r)
    g_si_col = np.take_along_axis(batch.g_si, kk[:, None, None], axis=2)[:, :, 0]  # (count, m_r)
    jj = np.argmax(relay_sinr(g_br_row, g_si_col, params.a1, params.a2), axis=1)
    return ii, jj, kk


def batch_max_u1_analytic(batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.arange(batch.count)
    ii = np.argmax(batch.g_su1, axis=1)
    kk = np.argmin(batch.g_ru1, axis=1)
    jj = np.argmax(batch.g_br[rows, ii, :], axis=1)
    return ii, jj, kk


def _batch_e2e_grid(batch: GainBatch, params: SystemParams) -> np.ndarray:
    g12 = cross_sinr(batch.g_su1[:, :, None], batch.g_ru1[:, None, :], params.a1, params.a2)
    gr = relay_sinr(batch.g_br[:, :, :, None], batch.g_si[:, None, :, :], params.a1, params.a2)
    return np.minimum(np.minimum(g12[:, :, None, :], gr), batch.g_ru2[:, None, None, :])


def _unravel(flat: np.ndarray, m_r: int, m_t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    kk = flat % m_t
    rest = flat // m_t
    return rest // m_r, rest % m_r, kk


_TILE_GRID_BYTES = 1 << 21


def _tiled_argmax(objective, batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (i, j, k) argmax of objective(rows, params), a (rows, m_b, m_r, m_t) grid.

    The batch is cut into row tiles whose grid is about _TILE_GRID_BYTES;
    4,096 rows at 4x4x4 antennas.
    """
    cells = params.m_b * params.m_r * params.m_t
    tile = max(1, _TILE_GRID_BYTES // (8 * cells))
    flat = np.empty(batch.count, dtype=np.intp)
    for start in range(0, batch.count, tile):
        stop = min(start + tile, batch.count)
        rows = GainBatch(
            g_br=batch.g_br[start:stop],
            g_su1=batch.g_su1[start:stop],
            g_ru1=batch.g_ru1[start:stop],
            g_ru2=batch.g_ru2[start:stop],
            g_si=batch.g_si[start:stop],
            count=stop - start,
        )
        flat[start:stop] = np.argmax(objective(rows, params).reshape(rows.count, cells), axis=1)
    return _unravel(flat, params.m_r, params.m_t)


def batch_max_u2_exhaustive(batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _tiled_argmax(_batch_e2e_grid, batch, params)


def batch_max_u2_decoupled(batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.arange(batch.count)
    kk = np.argmax(batch.g_ru2, axis=1)
    g_si_col = np.take_along_axis(batch.g_si, kk[:, None, None], axis=2)[:, :, 0]
    jj = np.argmin(g_si_col, axis=1)
    ii = np.argmax(batch.g_br[rows, :, jj], axis=1)
    return ii, jj, kk


def _batch_sumrate_grid(batch: GainBatch, params: SystemParams) -> np.ndarray:
    r1 = rate_bits(near_sinr(batch.g_su1[:, :, None], batch.g_ru1[:, None, :], params.a1))
    return r1[:, :, None, :] + rate_bits(_batch_e2e_grid(batch, params))


def batch_optimum_sumrate(batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _tiled_argmax(_batch_sumrate_grid, batch, params)


def batch_random(batch: GainBatch, params: SystemParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        rng.integers(params.m_b, size=batch.count),
        rng.integers(params.m_r, size=batch.count),
        rng.integers(params.m_t, size=batch.count),
    )


SCHEMES = (
    "max_u1",
    "max_u1_analytic",
    "max_u2_exhaustive",
    "max_u2_decoupled",
    "optimum_sumrate",
    "random",
)

_SCALAR = {
    "max_u1": select_max_u1,
    "max_u1_analytic": select_max_u1_analytic,
    "max_u2_exhaustive": select_max_u2_exhaustive,
    "max_u2_decoupled": select_max_u2_decoupled,
    "optimum_sumrate": select_optimum_sumrate,
    "random": select_random,
}

_BATCH = {
    "max_u1": batch_max_u1,
    "max_u1_analytic": batch_max_u1_analytic,
    "max_u2_exhaustive": batch_max_u2_exhaustive,
    "max_u2_decoupled": batch_max_u2_decoupled,
    "optimum_sumrate": batch_optimum_sumrate,
    "random": batch_random,
}

NEEDS_RNG = {"random"}


def check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}")
    return scheme


def select(
    scheme: str,
    real: ChannelRealization,
    params: SystemParams,
    rng: np.random.Generator | None = None,
) -> AntennaChoice:
    check_scheme(scheme)
    if scheme in NEEDS_RNG:
        if rng is None:
            raise ValueError(f"scheme {scheme!r} requires an rng")
        return _SCALAR[scheme](real, params, rng)
    return _SCALAR[scheme](real, params)


def select_batch(
    scheme: str,
    batch: GainBatch,
    params: SystemParams,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    check_scheme(scheme)
    if scheme in NEEDS_RNG:
        if rng is None:
            raise ValueError(f"scheme {scheme!r} requires an rng")
        return _BATCH[scheme](batch, params, rng)
    return _BATCH[scheme](batch, params)
