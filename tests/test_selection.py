import concurrent.futures
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnoma import selection
from fdnoma.channel import GainBatch
from fdnoma.selection import JOINT_SCHEMES, SCHEMES, joint_search, select_batch
from fdnoma.sinr import rate_bits

from conftest import batch_from, chosen_sinrs, draw_gains, make_params, tile_rows

LN2 = math.log(2.0)


@pytest.fixture
def params():
    return make_params(m_b=3, m_r=3, m_t=2)


def random_batch(params, count=50, seed=17):
    return draw_gains(params, (seed, 0), count)


def choices(scheme, batch, params, rng=None):
    """select_batch as a list of per-row (i, j, k) tuples of ints."""
    ii, jj, kk = select_batch(scheme, batch, params, rng)
    return list(zip(ii.tolist(), jj.tolist(), kk.tolist()))


def fixed(batch, i, j, k):
    """The choice (i, j, k) in every row, as index arrays."""
    return tuple(np.full(batch.count, v) for v in (i, j, k))


def e2e(batch, params, ii, jj, kk):
    return chosen_sinrs(batch, ii, jj, kk, params)[3]


def sum_rate(batch, params, ii, jj, kk):
    gamma_1, _, _, gamma_2, _ = chosen_sinrs(batch, ii, jj, kk, params)
    return rate_bits(gamma_1) + rate_bits(gamma_2)


# Per-row oracles for the stage-wise schemes, in plain Python floats: the
# same comparisons and objective arithmetic; max and min keep the first of
# equal values, so ties go to the lowest index.

def _argmax(values):
    return max(range(len(values)), key=lambda index: float(values[index]))


def _argmin(values):
    return min(range(len(values)), key=lambda index: float(values[index]))


def row_max_u1(batch, t, params):
    i, k = _argmax(batch.g_su1[t]), _argmin(batch.g_ru1[t])
    relay = []
    for j in range(params.m_r):
        g, s = float(batch.g_br[t, i, j]), float(batch.g_si[t, j, k])
        relay.append(params.a2 * g / (params.a1 * g + s + 1.0))
    return i, _argmax(relay), k


def row_max_u1_analytic(batch, t, params):
    i, k = _argmax(batch.g_su1[t]), _argmin(batch.g_ru1[t])
    return i, _argmax(batch.g_br[t, i, :]), k


def row_max_u2_decoupled(batch, t, params):
    k = _argmax(batch.g_ru2[t])
    j = _argmin(batch.g_si[t, :, k])
    return _argmax(batch.g_br[t, :, j]), j, k


ROW_ORACLES = {
    "max_u1": row_max_u1,
    "max_u1_analytic": row_max_u1_analytic,
    "max_u2_decoupled": row_max_u2_decoupled,
}


class TestMaxU1:
    def test_separable_first_stage(self, params):
        batch = batch_from(
            g_br=np.ones((3, 3)),
            g_su1=[1.0, 5.0, 2.0],
            g_ru1=[3.0, 0.1],
            g_ru2=[1.0, 1.0],
            g_si=np.zeros((3, 2)),
        )
        i, _, k = choices("max_u1", batch, params)[0]
        assert (i, k) == (1, 1)

    def test_tie_breaks_to_lowest_index(self, params):
        batch = batch_from(
            g_br=np.ones((3, 3)),
            g_su1=[2.0, 2.0, 2.0],
            g_ru1=[0.5, 0.5],
            g_ru2=[1.0, 1.0],
            g_si=np.zeros((3, 2)),
        )
        i, _, k = choices("max_u1", batch, params)[0]
        assert (i, k) == (0, 0)

    def test_matches_two_stage_enumeration(self, params):
        # oracle: exhaustive search of the first objective over (i, k),
        # then of the second objective over j given that pair
        batch = random_batch(params)
        for t, choice in enumerate(choices("max_u1", batch, params)):
            best_ik, best_val = None, -1.0
            for i in range(params.m_b):
                for k in range(params.m_t):
                    val = params.a1 * batch.g_su1[t, i] / (batch.g_ru1[t, k] + 1.0)
                    if val > best_val:
                        best_ik, best_val = (i, k), val
            assert (choice[0], choice[2]) == best_ik
            i, k = best_ik
            best_j, best_obj = None, -1.0
            for j in range(params.m_r):
                g, s = batch.g_br[t, i, j], batch.g_si[t, j, k]
                obj = params.a2 * g / (params.a1 * g + s + 1.0)
                if obj > best_obj:
                    best_j, best_obj = j, obj
            assert choice[1] == best_j


class TestMaxU1Analytic:
    def test_same_choice_when_self_interference_vanishes(self, params):
        batch = random_batch(params)
        quiet = replace(batch, g_si=np.zeros_like(batch.g_si))
        assert choices("max_u1", quiet, params) == choices("max_u1_analytic", quiet, params)

    def test_receive_stage_takes_strongest_feed(self, params):
        batch = batch_from(
            g_br=[[1.0, 9.0, 4.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
            g_su1=[5.0, 1.0, 1.0],
            g_ru1=[0.1, 3.0],
            g_ru2=[1.0, 1.0],
            g_si=np.full((3, 2), 100.0),
        )
        assert choices("max_u1_analytic", batch, params) == [(0, 1, 0)]

    def test_first_stage_shared_with_exact_scheme(self, params):
        batch = random_batch(params, count=20)
        exact = choices("max_u1", batch, params)
        approx = choices("max_u1_analytic", batch, params)
        assert [(i, k) for i, _, k in exact] == [(i, k) for i, _, k in approx]


class TestMaxU2Exhaustive:
    def test_single_antenna_degenerate(self):
        single = make_params(m_b=1, m_r=1, m_t=1)
        assert choices("max_u2_exhaustive", random_batch(single, count=8), single) == [(0, 0, 0)] * 8

    def test_attains_maximum_over_all_triples(self, params):
        batch = random_batch(params)
        attained = e2e(batch, params, *select_batch("max_u2_exhaustive", batch, params))
        for i in range(params.m_b):
            for j in range(params.m_r):
                for k in range(params.m_t):
                    assert np.all(attained >= e2e(batch, params, *fixed(batch, i, j, k)))

    def test_dead_far_link_falls_back_to_first_triple(self, params):
        batch = random_batch(params)
        dead = replace(batch, g_ru2=np.zeros_like(batch.g_ru2))
        assert choices("max_u2_exhaustive", dead, params) == [(0, 0, 0)] * batch.count


class TestMaxU2Decoupled:
    def test_stagewise_choice(self):
        params = make_params(m_b=2, m_r=3, m_t=2)
        batch = batch_from(
            g_br=[[1.0, 4.0, 2.0], [3.0, 1.0, 1.0]],
            g_su1=[1.0, 1.0],
            g_ru1=[0.1, 0.1],
            g_ru2=[1.0, 7.0],
            g_si=[[9.0, 5.0], [8.0, 0.2], [7.0, 3.0]],
        )
        i, j, k = choices("max_u2_decoupled", batch, params)[0]
        assert (k, j) == (1, 1)
        assert i == 0  # g_br column j=1 is [4, 1]

    def test_never_beats_exhaustive(self, params):
        batch = random_batch(params)
        dec = e2e(batch, params, *select_batch("max_u2_decoupled", batch, params))
        exh = e2e(batch, params, *select_batch("max_u2_exhaustive", batch, params))
        assert np.all(dec <= exh)

    def test_single_relay_chain_matches_exhaustive(self):
        # with one receive and one transmit antenna only the BS index is
        # free, and maximizing the relay SINR equals maximizing e2e?  No:
        # e2e also depends on g_su1 through the cross term, so only the
        # attained SINR under a brute-force check is compared.
        for m_b in (1, 2, 3, 4):
            params = make_params(m_b=m_b, m_r=1, m_t=1)
            batch = random_batch(params, count=25, seed=m_b)
            # decoupled picks argmax of g_br[:, 0]; the relay SINR is
            # monotone in it, so it attains the best relay SINR
            best_relay = np.max(
                [chosen_sinrs(batch, *fixed(batch, i, 0, 0), params)[2] for i in range(m_b)], axis=0
            )
            dec = chosen_sinrs(batch, *select_batch("max_u2_decoupled", batch, params), params)[2]
            assert dec == pytest.approx(best_relay)


class TestOptimumSumRate:
    def test_single_antenna_degenerate(self):
        single = make_params(m_b=1, m_r=1, m_t=1)
        assert choices("optimum_sumrate", random_batch(single, count=8), single) == [(0, 0, 0)] * 8

    def test_dominates_max_u1_sum_rate(self, params):
        batch = random_batch(params)
        opt = sum_rate(batch, params, *select_batch("optimum_sumrate", batch, params))
        near = sum_rate(batch, params, *select_batch("max_u1", batch, params))
        assert np.all(opt >= near)

    def test_matches_enumeration_oracle(self):
        # every (i, j, k) in lexicographic order, each over the whole batch;
        # a strictly larger sum replaces the best, so ties keep the lowest triple
        params = make_params()
        trials = 10_000
        batch = draw_gains(params, (123, 0), trials)
        ii, jj, kk = select_batch("optimum_sumrate", batch, params)
        best = np.full(trials, -np.inf)
        best_triple = np.zeros((3, trials), dtype=np.intp)
        for i in range(params.m_b):
            for j in range(params.m_r):
                for k in range(params.m_t):
                    gamma_1, _, _, gamma_2, _ = chosen_sinrs(batch, *fixed(batch, i, j, k), params)
                    total = np.log2(1.0 + gamma_1) + np.log2(1.0 + gamma_2)
                    better = total > best
                    best[better] = total[better]
                    best_triple[:, better] = np.array([i, j, k])[:, None]
        hits = int(np.count_nonzero(np.all(np.stack([ii, jj, kk]) == best_triple, axis=0)))
        # log2(1+x) vs log1p(x)/ln 2 can disagree at ties of nearly equal
        # sums; demand exact agreement, which holds on this seed
        assert hits == trials


class TestRandom:
    def test_deterministic_given_seed(self, params):
        batch = random_batch(params)
        a = choices("random", batch, params, np.random.default_rng(99))
        b = choices("random", batch, params, np.random.default_rng(99))
        assert a == b

    def test_indices_in_range(self, params):
        batch = random_batch(params, count=100)
        for i, j, k in choices("random", batch, params, np.random.default_rng(1)):
            assert 0 <= i < params.m_b
            assert 0 <= j < params.m_r
            assert 0 <= k < params.m_t

    def test_registry_requires_rng(self, params):
        with pytest.raises(ValueError):
            select_batch("random", random_batch(params), params)


@given(exponent=st.integers(min_value=-8, max_value=8))
@settings(max_examples=25, deadline=None)
def test_first_stage_invariant_to_common_scaling(exponent):
    # powers of two rescale exactly, so the argmax cannot move
    params = make_params(m_b=3, m_r=3, m_t=2)
    batch = draw_gains(params, (17, 8), 20)
    c = 2.0**exponent
    scaled = replace(batch, g_su1=batch.g_su1 * c, g_ru1=batch.g_ru1 * c)
    base = choices("max_u1", batch, params)
    moved = choices("max_u1", scaled, params)
    assert [(i, k) for i, _, k in base] == [(i, k) for i, _, k in moved]


def test_unknown_scheme_rejected(params):
    with pytest.raises(ValueError):
        select_batch("steepest_descent", random_batch(params), params)


@pytest.mark.parametrize("scheme", [s for s in SCHEMES if s != "random"])
def test_batch_agrees_with_scalar(scheme):
    # the scalar oracles: plain-Python stage-wise rules row by row, and the
    # untiled full-grid argmax for the joint searches
    params = make_params(m_b=4, m_r=3, m_t=2)
    batch = draw_gains(params, (55, 0), 256)
    ii, jj, kk = select_batch(scheme, batch, params)
    if scheme in ROW_ORACLES:
        want = [ROW_ORACLES[scheme](batch, t, params) for t in range(batch.count)]
    else:
        want = list(zip(*(a.tolist() for a in UNTILED[scheme](batch, params))))
    for t in range(batch.count):
        assert (ii[t], jj[t], kk[t]) == want[t], f"trial {t}"


def test_batch_random_ranges_and_determinism():
    params = make_params()
    batch = draw_gains(params, (55, 0), 512)
    a = select_batch("random", batch, params, np.random.default_rng(3))
    b = select_batch("random", batch, params, np.random.default_rng(3))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert all(x.max() < 4 and x.min() >= 0 for x in a)


def test_dominance_chain_per_realization():
    params = make_params()
    batch = draw_gains(params, (77, 0), 2000)
    per_scheme = {}
    for scheme in SCHEMES:
        sel_rng = np.random.default_rng(5) if scheme == "random" else None
        g1, _, _, g2, _ = chosen_sinrs(batch, *select_batch(scheme, batch, params, sel_rng), params)
        per_scheme[scheme] = {"g1": g1, "g2": g2, "sum": rate_bits(g1) + rate_bits(g2)}

    assert np.all(per_scheme["max_u2_exhaustive"]["g2"] >= per_scheme["max_u2_decoupled"]["g2"])
    assert np.all(per_scheme["max_u2_exhaustive"]["g2"] >= per_scheme["random"]["g2"])
    for scheme in SCHEMES:
        assert np.all(per_scheme["optimum_sumrate"]["sum"] >= per_scheme[scheme]["sum"])
        assert np.all(per_scheme["max_u1"]["g1"] >= per_scheme[scheme]["g1"])


# Oracles for the tiled joint searches: one (count, m_b, m_r, m_t) grid over
# the whole batch, argmax per row over the flattened (i, j, k) grid.  The
# SINRs and rates are written out here, not taken from the sinr kernels the
# search itself calls.

def _untiled_far_grid(batch, params):
    a1, a2 = params.a1, params.a2
    g_su1, g_ru1 = batch.g_su1[:, :, None], batch.g_ru1[:, None, :]
    g_br, g_si = batch.g_br[:, :, :, None], batch.g_si[:, None, :, :]
    g12 = a2 * g_su1 / (a1 * g_su1 + g_ru1 + 1.0)
    gr = a2 * g_br / (a1 * g_br + g_si + 1.0)
    return np.minimum(np.minimum(g12[:, :, None, :], gr), batch.g_ru2[:, None, None, :])


def _full_argmax(grid, params):
    flat = np.argmax(grid.reshape(grid.shape[0], -1), axis=1)
    return np.unravel_index(flat, (params.m_b, params.m_r, params.m_t))


def untiled_max_u2_exhaustive(batch, params):
    return _full_argmax(_untiled_far_grid(batch, params), params)


def untiled_optimum_sumrate(batch, params):
    r1 = np.log1p(params.a1 * batch.g_su1[:, :, None] / (batch.g_ru1[:, None, :] + 1.0)) / LN2
    return _full_argmax(r1[:, :, None, :] + np.log1p(_untiled_far_grid(batch, params)) / LN2, params)


UNTILED = {
    "max_u2_exhaustive": untiled_max_u2_exhaustive,
    "optimum_sumrate": untiled_optimum_sumrate,
}


def assert_same_indices(scheme, batch, params):
    got = select_batch(scheme, batch, params)
    want = UNTILED[scheme](batch, params)
    for axis, a, b in zip("ijk", got, want):
        assert a.shape == (batch.count,)
        np.testing.assert_array_equal(a, b, err_msg=f"{scheme} {axis}")


def test_tile_is_about_half_a_mib_of_grid():
    assert tile_rows(make_params()) == 1024
    assert tile_rows(make_params(m_b=8, m_r=8, m_t=8)) == 128


@pytest.mark.parametrize("scheme", sorted(UNTILED))
@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 5, 2), (8, 8, 8)])
@pytest.mark.parametrize("where", ["one", "tile-1", "tile", "tile+1", "many"])
def test_tiled_search_matches_untiled_grid(scheme, shape, where):
    params = make_params(m_b=shape[0], m_r=shape[1], m_t=shape[2])
    tile = tile_rows(params)
    # 70,001 rows at 8x8x8 would need a 287 MB oracle grid per temporary;
    # ten tiles and one row cross as many boundaries per tile there.
    many = 70_001 if shape != (8, 8, 8) else 10 * tile + 1
    count = {"one": 1, "tile-1": tile - 1, "tile": tile, "tile+1": tile + 1, "many": many}[where]
    batch = draw_gains(params, (2024, sum(shape)), count)
    assert_same_indices(scheme, batch, params)


def batch_joint_search(batch, params, schemes, dtype=np.intp):
    """Per-row (i, j, k) of each joint scheme in `schemes`, every tile in this thread.

    Written as a block writes them: one slot of a (schemes, 3, count) array of `dtype` per scheme.
    """
    slots = np.empty((len(schemes), 3, batch.count), dtype=dtype)
    chosen = {scheme: tuple(slot) for scheme, slot in zip(schemes, slots)}
    joint_search(batch, params, chosen)
    return chosen


def slot_type(shape):
    """The type of a block's choice slots: the smallest that indexes the antennas."""
    return np.min_scalar_type(max(shape) - 1)


def assert_joint_pass_matches(batch, params, dtype=np.intp):
    # Both joint schemes from one pass: the same indices as the untiled
    # oracles and as each scheme's own select_batch call.
    chosen = batch_joint_search(batch, params, JOINT_SCHEMES, dtype)
    assert list(chosen) == list(JOINT_SCHEMES)
    for scheme in JOINT_SCHEMES:
        for want in (UNTILED[scheme](batch, params), select_batch(scheme, batch, params)):
            for axis, a, b in zip("ijk", chosen[scheme], want):
                assert a.shape == (batch.count,) and a.dtype == dtype
                np.testing.assert_array_equal(a, b, err_msg=f"{scheme} {axis}")


JOINT_CASES = [(s, w) for s in [(4, 4, 4), (3, 5, 2)] for w in ["one", "tile-1", "tile", "tile+1", "many"]] + [
    ((8, 8, 8), "many")
]


@pytest.mark.parametrize(
    "shape,where,slots",
    [
        pytest.param(shape, where, slots, id=f"shape{n}-{where}" + ("-slots" if slots else ""))
        for slots in (False, True)
        for n, (shape, where) in enumerate(JOINT_CASES)
    ],
)
def test_joint_pass_matches_untiled_and_single_scheme(shape, where, slots):
    # Into intp arrays, as select_batch makes them, or into a block's slots: uint8, also
    # at 8x8x8, whose 512 flat indices need uint16.
    params = make_params(m_b=shape[0], m_r=shape[1], m_t=shape[2])
    tile = tile_rows(params)
    many = 70_001 if shape != (8, 8, 8) else 10 * tile + 1
    count = {"one": 1, "tile-1": tile - 1, "tile": tile, "tile+1": tile + 1, "many": many}[where]
    batch = draw_gains(params, (2025, sum(shape)), count)
    dtype = slot_type(shape) if slots else np.intp
    assert dtype == (np.uint8 if slots else np.intp)
    assert_joint_pass_matches(batch, params, dtype)


@pytest.mark.parametrize(
    "shape,where,threads",
    [(s, w, 2) for s in [(4, 4, 4), (3, 5, 2)] for w in ["tile+1", "many"]]
    + [((8, 8, 8), "many", 2), ((4, 4, 4), "many", 3), ((8, 8, 8), "many", 3)],
)
def test_joint_pass_shared_by_threads_matches_untiled(shape, where, threads, fast_switching, monkeypatch):
    # Searches of one batch in flight on several threads at once, as the blocks of a
    # Monte Carlo run are: each call searches the tiles in turn in one pair of buffers
    # of its own and writes into slots of its own.  A skipped tile, a cell left over from
    # the tile before, or a write to the shared batch or to state shared between searches
    # would leave rows that differ from the untiled oracle.
    params = make_params(m_b=shape[0], m_r=shape[1], m_t=shape[2])
    tile = tile_rows(params)
    count = {"tile+1": tile + 1, "many": 70_001 if shape != (8, 8, 8) else 10 * tile + 1}[where]
    batch = draw_gains(params, (2026, sum(shape)), count)
    want = {scheme: UNTILED[scheme](batch, params) for scheme in JOINT_SCHEMES}
    all_started = threading.Barrier(threads, timeout=10)
    search_tile, searched = selection._search_tile, {}

    def recording(batch, params, start, stop, buffers, flat):
        # Each search waits at its first tile until every thread has reached its own.
        mine = searched.setdefault(threading.get_ident(), [])
        if not mine:
            all_started.wait()
        mine.append((start, stop, buffers))  # held, so no two buffers share an id
        search_tile(batch, params, start, stop, buffers, flat)

    def search():
        return threading.get_ident(), batch_joint_search(batch, params, JOINT_SCHEMES, slot_type(shape))

    monkeypatch.setattr(selection, "_search_tile", recording)
    with concurrent.futures.ThreadPoolExecutor(threads) as pool:
        runs = [pool.submit(search) for _ in range(threads)]
        runs = [run.result(timeout=60) for run in runs]
    assert sorted(searched) == sorted(thread for thread, _ in runs) and len(searched) == threads
    for thread, chosen in runs:
        starts, stops, buffers = zip(*searched[thread])
        assert starts == tuple(range(0, count, tile)) and stops == (*starts[1:], count)
        assert len(set(map(id, buffers))) == 1
        for scheme in JOINT_SCHEMES:
            for axis, a, b in zip("ijk", chosen[scheme], want[scheme]):
                np.testing.assert_array_equal(a, b, err_msg=f"{scheme} {axis}")


def test_joint_pass_rejects_other_schemes():
    params = make_params()
    with pytest.raises(ValueError):
        batch_joint_search(draw_gains(params, (1, 0), 4), params, ("max_u1",))


@pytest.mark.parametrize("scheme", sorted(UNTILED))
def test_tiled_search_ties_pick_lowest_triple(scheme):
    # The far-user objective reduces to the relay SINR, a function of
    # g_br[i, j] alone, and the near-user rate is the same for every (i, k):
    # (1, 2) and (2, 0) share the strongest feed and every k ties, so the
    # lowest flat index (1, 2, 0) wins in every row, across tile boundaries.
    params = make_params()
    count = tile_rows(params) + 3
    g_br = np.ones((params.m_b, params.m_r))
    g_br[1, 2] = g_br[2, 0] = 5.0
    batch = GainBatch(
        g_br=np.broadcast_to(g_br, (count, params.m_b, params.m_r)),
        g_su1=np.full((count, params.m_b), 1e6),
        g_ru1=np.zeros((count, params.m_t)),
        g_ru2=np.full((count, params.m_t), 1e6),
        g_si=np.zeros((count, params.m_r, params.m_t)),
        count=count,
    )
    ii, jj, kk = select_batch(scheme, batch, params)
    assert set(zip(ii.tolist(), jj.tolist(), kk.tolist())) == {(1, 2, 0)}
    assert_same_indices(scheme, batch, params)
    ii, jj, kk = batch_joint_search(batch, params, JOINT_SCHEMES)[scheme]
    assert set(zip(ii.tolist(), jj.tolist(), kk.tolist())) == {(1, 2, 0)}
    assert_joint_pass_matches(batch, params)
