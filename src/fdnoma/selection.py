"""Antenna-selection schemes.

Two proposed schemes (near-user first and far-user e2e maximization),
the decoupled stage-wise variants the closed-form analysis characterizes,
an exhaustive sum-rate optimum, and a random baseline.  Exact ties break
to the lowest index (lexicographic over (i, j, k) for joint searches).

Every scheme works on a GainBatch, a stack of channel realizations, and
returns one (i, j, k) index array per axis, one entry per realization:
the BS transmit, relay receive and relay transmit antenna.  select_batch
is the single entry point by scheme name.

The two joint searches (max_u2_exhaustive, optimum_sumrate) share one
tiled pass, joint_search.  It walks row tiles of the batch, sized so that
one tile's per-trial (m_b, m_r, m_t) far-user SINR grid is about 512 KiB
of float64, builds that grid once per tile and takes the argmax of every
requested scheme from it, then unravels each scheme's argmaxes into the
caller's (i, j, k) arrays.  The grid and its spare buffer stay in cache:
on one thread of a 2-vCPU Xeon (2 MiB L2), tiles of 128 to 512 KiB search a
16,384-row block at 4x4x4 in the same 15 ms, 1 MiB tiles take 12% longer
and 2 MiB ones 40%, and the largest fast size makes the fewest Python
calls.  Every grid cell and every per-row argmax depends on its own row
only, and each cell is computed by the formula kernels of the sinr
module, so the pass gives the same indices as one full-batch grid per
scheme; ties still break to the lowest flat (i, j, k) index.

A batch holds unit-mean draws and the mean gain of each group at the
point that reads them (channel.GainBatch).  A stage that picks the
strongest or weakest antenna within one group reads the draws as they
are: a positive mean keeps their order, and rounding is monotone, so the
pick is still an extreme of the gains.  Such picks follow the draws, and
only exact ties among the draws go to the lowest index.  That covers
every stage of the ORDER_SCHEMES and the first stage of max_u1.  The
stages that compare gains across groups, max_u1's receive stage and the
joint searches, read their gathered or tiled draws times the batch's
means, the gains at its point.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import GainBatch
from .config import SCHEMES, ConfigError, SystemParams, check_scheme  # noqa: F401  perfbench reads SCHEMES here
from .sinr import cross_sinr, near_sinr, rate_bits, relay_sinr


def batch_max_u1(batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize the near-user SINR, then the relay SINR given that choice.

    The first stage is separable: the strongest BS-to-near-user antenna
    and the weakest interfering relay antenna.  The second stage picks the
    relay receive antenna with the self-interference term included, on
    the gathered draws times their means.
    """
    rows = np.arange(batch.count)
    ii = np.argmax(batch.g_su1, axis=1)
    kk = np.argmin(batch.g_ru1, axis=1)
    g_br_row = batch.g_br[rows, ii, :]  # (count, m_r)
    g_si_col = np.take_along_axis(batch.g_si, kk[:, None, None], axis=2)[:, :, 0]  # (count, m_r)
    g_br_row *= batch.means.lam_br  # the gathered copies are scaled in place
    g_si_col *= batch.means.lam_si
    jj = np.argmax(relay_sinr(g_br_row, g_si_col, params.a1, params.a2), axis=1)
    return ii, jj, kk


def batch_max_u1_analytic(batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As batch_max_u1 but the receive stage maximizes the BS-relay gain alone.

    Ignoring self-interference at that stage decouples the receive antenna
    from the relay transmit antenna; this is the variant the closed forms
    describe.
    """
    rows = np.arange(batch.count)
    ii = np.argmax(batch.g_su1, axis=1)
    kk = np.argmin(batch.g_ru1, axis=1)
    jj = np.argmax(batch.g_br[rows, ii, :], axis=1)
    return ii, jj, kk


_TILE_GRID_BYTES = 1 << 19

JOINT_SCHEMES = ("max_u2_exhaustive", "optimum_sumrate")


def joint_search(batch: GainBatch, params: SystemParams, choices: dict[str, tuple[np.ndarray, ...]]) -> None:
    """Each joint scheme's (i, j, k) per row of the batch, written into its three arrays in `choices`.

    The batch is cut into row tiles whose grid is about _TILE_GRID_BYTES;
    1,024 rows at 4x4x4 antennas.  They are searched in turn in one pair of
    tile buffers into one flat index array per scheme, unravelled once into
    the three arrays, of any integer type that holds the antenna indices:
    unravelling each tile took about 0.18 ms per scheme and 16,384-row block
    at 4x4x4, against 0.07 ms once.
    """
    unknown = set(choices) - set(JOINT_SCHEMES)
    if unknown:
        raise ConfigError("SCHEME_NOT_JOINT", f"not joint searches: {sorted(unknown)}; known: {', '.join(JOINT_SCHEMES)}")
    shape = (params.m_b, params.m_r, params.m_t)
    tile = max(1, min(batch.count, _TILE_GRID_BYTES // (8 * math.prod(shape))))
    cells = np.min_scalar_type(math.prod(shape) - 1)  # the smallest type that holds a flat index
    flat = {scheme: np.empty(batch.count, dtype=cells) for scheme in choices}
    buffers = np.empty((2, tile, *shape))
    for start in range(0, batch.count, tile):
        _search_tile(batch, params, start, min(start + tile, batch.count), buffers, flat)
    for scheme, (ii, jj, kk) in choices.items():
        rest, _ = np.divmod(flat[scheme], shape[2], out=(None, kk), casting="unsafe")
        np.divmod(rest, shape[1], out=(ii, jj), casting="unsafe")


def _search_tile(batch: GainBatch, params: SystemParams, start: int, stop: int, buffers: np.ndarray, flat: dict) -> None:
    """Rows start:stop of every scheme's flat (i, j, k) index in `flat`.

    The end-to-end far-user SINR grid min(cross, relay, g_ru2) is built in
    the first buffer; the second holds the relay denominator, then the
    sum-rate grid when optimum_sumrate is asked for.  The tile's draws are
    copied and scaled by the batch's means before the grid is built.
    """
    batch, a1, a2 = batch.rows(start, stop), params.a1, params.a2
    m_b, m_r, m_t = params.m_b, params.m_r, params.m_t
    rows = stop - start
    grid, spare = buffers[:, :rows]
    lam_br, lam_su1, lam_ru1, lam_ru2, lam_si = batch.means
    # Operands missing grid axes are repeated along them (g_br along k, the (i, k) terms along j, their gains
    # to (i, k) rows first) into copies, scaled in place, so each step runs over contiguous memory.
    g_br = np.repeat(batch.g_br, m_t, axis=2).reshape(grid.shape)
    g_br *= lam_br
    g_su1 = np.repeat(batch.g_su1, m_t, axis=1)
    g_su1 *= lam_su1
    g_ru1 = np.tile(batch.g_ru1, m_b)
    g_ru1 *= lam_ru1
    relay_sinr(g_br, (batch.g_si * lam_si)[:, None, :, :], a1, a2, out=grid, scratch=spare)
    g_ru2 = np.tile(batch.g_ru2, m_b)
    g_ru2 *= lam_ru2
    # min is exact, so clamping by the (i, k) terms first gives the same cells
    clamp = np.minimum(cross_sinr(g_su1, g_ru1, a1, a2), g_ru2)
    np.minimum(grid, np.repeat(clamp.reshape(rows, m_b, 1, m_t), m_r, axis=2), out=grid)
    if "max_u2_exhaustive" in flat:
        flat["max_u2_exhaustive"][start:stop] = np.argmax(grid.reshape(rows, -1), axis=1)
    if "optimum_sumrate" in flat:
        # rate_bits of the grid plus the near-user rate
        rate_bits(grid, out=spare)
        r1 = rate_bits(near_sinr(g_su1, g_ru1, a1))
        np.add(spare, np.repeat(r1.reshape(rows, m_b, 1, m_t), m_r, axis=2), out=spare)
        flat["optimum_sumrate"][start:stop] = np.argmax(spare.reshape(rows, -1), axis=1)


def batch_max_u2_decoupled(batch: GainBatch, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-wise far-user selection: best relay-to-far link, then least
    self-interference into it, then strongest BS feed for that receive
    antenna.  This is the variant the closed forms describe."""
    rows = np.arange(batch.count)
    kk = np.argmax(batch.g_ru2, axis=1)
    g_si_col = np.take_along_axis(batch.g_si, kk[:, None, None], axis=2)[:, :, 0]
    jj = np.argmin(g_si_col, axis=1)
    ii = np.argmax(batch.g_br[rows, :, jj], axis=1)
    return ii, jj, kk


def batch_random(batch: GainBatch, params: SystemParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform independent indices at BS and relay input/output."""
    return (
        rng.integers(params.m_b, size=batch.count),
        rng.integers(params.m_r, size=batch.count),
        rng.integers(params.m_t, size=batch.count),
    )


_BATCH = {
    "max_u1": batch_max_u1,
    "max_u1_analytic": batch_max_u1_analytic,
    "max_u2_decoupled": batch_max_u2_decoupled,
    "random": batch_random,
}

NEEDS_RNG = {"random"}

# The schemes whose every stage picks by order within one gain group, or reads no gain.
ORDER_SCHEMES = ("max_u1_analytic", "max_u2_decoupled", "random")

# The stage-wise kernels' temporaries (gathered rows and their SINRs) fit the 2 MiB L2 of a 2-vCPU Xeon in 4,096-row
# chunks but not a whole 16,384-row block: one thread at 4x4x4 selects a block in 1.9 ms chunked against 2.75 ms whole
# for max_u1, 1.66 against 1.92 ms for max_u2_decoupled, and 1.2 ms either way for max_u1_analytic.
_SELECT_ROWS = 1 << 12


def select_batch(
    scheme: str,
    batch: GainBatch,
    params: SystemParams,
    rng: np.random.Generator | None = None,
    out: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scheme's (i, j, k) per row of the batch, at the batch's mean gains.

    The ORDER_SCHEMES read no mean: they pick by order within a group, so
    their choice serves the same draws at every power point.  The choice is
    written into `out`, three arrays of batch.count entries of an integer
    type that holds the antenna indices, or into three new intp arrays, and
    returned.
    """
    check_scheme(scheme)
    if scheme in NEEDS_RNG and rng is None:
        raise ConfigError("SCHEME_NEEDS_RNG", f"scheme {scheme!r} requires an rng")
    choice = tuple(np.empty(batch.count, dtype=np.intp) for _ in range(3)) if out is None else out
    if scheme in JOINT_SCHEMES:
        joint_search(batch, params, {scheme: choice})
    elif scheme in NEEDS_RNG:
        for whole, chosen in zip(choice, _BATCH[scheme](batch, params, rng)):
            whole[:] = chosen
    else:
        # The stage-wise kernels work row by row: chunks give the same indices with chunk-sized temporaries.
        for start in range(0, batch.count, _SELECT_ROWS):
            part = batch.rows(start, start + _SELECT_ROWS)
            for whole, chosen in zip(choice, _BATCH[scheme](part, params)):
                whole[start : start + part.count] = chosen
    return choice
