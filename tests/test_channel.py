import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from fdnoma.channel import DEFAULT_BLOCK_SIZE, blocks, draw_batch, dump_columns, dump_realizations, empty_batch
from fdnoma.config import ConfigError, SystemParams, mean_gains
from fdnoma.montecarlo import estimate_rates
from fdnoma.sinr import near_sinr, rate_bits

from conftest import draw_gains, make_params, scaled


GROUPS = ("g_br", "g_su1", "g_ru1", "g_ru2", "g_si")


def row_gains(batch, t):
    """Trial t of a batch in dump column order."""
    return np.concatenate([getattr(batch, name)[t].ravel() for name in GROUPS])


def test_same_seed_and_stream_is_bit_identical(baseline):
    a = draw_batch(baseline, (42, 7), 3)
    b = draw_batch(baseline, (42, 7), 3)
    for name in GROUPS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("overrides", [{}, {"k1": 0.0, "m_b": 3, "m_r": 5, "m_t": 2}])
def test_groups_are_scaled_draws_bit_for_bit(overrides):
    # Each group holds its standard exponential draws, zeros where its mean is 0, and its
    # gains are lam * draws, the stream consumed group by group in the documented order.
    params = make_params(**overrides)
    gains = mean_gains(params)
    batch = draw_batch(params, (8, 3), 1001)
    assert batch.means == gains
    products = scaled(batch)
    rng = np.random.default_rng(np.random.SeedSequence((8, 3)))
    for name, lam, shape in (
        ("g_br", gains.lam_br, (1001, params.m_b, params.m_r)),
        ("g_su1", gains.lam_su1, (1001, params.m_b)),
        ("g_ru1", gains.lam_ru1, (1001, params.m_t)),
        ("g_ru2", gains.lam_ru2, (1001, params.m_t)),
        ("g_si", gains.lam_si, (1001, params.m_r, params.m_t)),
    ):
        draws = rng.standard_exponential(shape)
        assert np.array_equal(getattr(batch, name), draws if lam else np.zeros(shape)), name
        assert np.array_equal(getattr(products, name), lam * draws), name


@pytest.mark.parametrize("overrides", [{}, {"k1": 0.0}, {"m_b": 3, "m_r": 5, "m_t": 2}])
def test_draw_into_buffers_is_bit_identical_to_a_fresh_draw(overrides):
    # A full block, a short last block after it, a smaller block after that
    # and a full block again, all into one set of buffers: every group holds
    # the bits of a fresh draw and is a view of the buffers.
    params = make_params(**overrides)
    into = empty_batch(params, DEFAULT_BLOCK_SIZE)
    for entropy, count in (((4, 0), DEFAULT_BLOCK_SIZE), ((4, 1), 4_465), ((5, 0), 1), ((5, 1), DEFAULT_BLOCK_SIZE)):
        batch = draw_batch(params, entropy, count, into)
        fresh = draw_batch(params, entropy, count)
        assert batch.count == count
        for name in GROUPS:
            drawn, want = getattr(batch, name), getattr(fresh, name)
            assert np.shares_memory(drawn, getattr(into, name)), name
            assert drawn.shape == want.shape and drawn.tobytes() == want.tobytes(), (name, count)
    if params.k1 == 0.0:
        assert not batch.g_ru1.any()


@pytest.mark.parametrize("count,overrides", [(11, {}), (10, {"m_t": 3}), (10, {"m_b": 2}), (10, {"m_r": 5})])
def test_draw_into_buffers_that_do_not_fit_is_an_error(count, overrides):
    into = empty_batch(make_params(), 10)
    with pytest.raises(ValueError, match="cannot take"):
        draw_batch(make_params(**overrides), (1, 0), count, into)


def test_different_streams_differ(baseline):
    a = draw_batch(baseline, (42, 0), 1)
    b = draw_batch(baseline, (42, 1), 1)
    assert not np.array_equal(a.g_br, b.g_br)


def test_shapes(baseline):
    batch = draw_batch(baseline, (0,), 3)
    assert batch.count == 3
    assert batch.g_br.shape == (3, baseline.m_b, baseline.m_r)
    assert batch.g_su1.shape == (3, baseline.m_b)
    assert batch.g_ru1.shape == (3, baseline.m_t)
    assert batch.g_ru2.shape == (3, baseline.m_t)
    assert batch.g_si.shape == (3, baseline.m_r, baseline.m_t)


def test_zero_interference_strength_gives_zero_gains():
    params = make_params(k1=0.0)
    batch = draw_batch(params, (1, 0), 1000)
    assert np.all(batch.g_ru1 == 0.0)
    assert np.all(batch.g_ru2 > 0.0)


def test_all_gains_nonnegative(baseline):
    batch = draw_batch(baseline, (3, 0), 10_000)
    for name in ("g_br", "g_su1", "g_ru1", "g_ru2", "g_si"):
        assert np.all(getattr(batch, name) >= 0.0)


def test_sample_mean_matches_configured_gain():
    # 10^6 exponential entries of mean 100: 3 sigma = 3 * 100 / 1000 = 0.3
    params = make_params(rho_s=100.0, var_bu1=1.0)
    batch = draw_gains(params, (2024, 0), 250_000)
    sample_mean = float(np.mean(batch.g_su1))  # 250k draws x 4 antennas
    assert abs(sample_mean - 100.0) < 0.3


def test_gain_groups_are_exponential():
    # Kolmogorov-Smirnov against the exponential law at significance 0.01
    params = make_params()
    gains = mean_gains(params)
    batch = draw_gains(params, (99, 0), 100_000)
    for samples, mean in (
        (batch.g_br[:, 0, 0], gains.lam_br),
        (batch.g_su1[:, 1], gains.lam_su1),
        (batch.g_ru1[:, 0], gains.lam_ru1),
        (batch.g_ru2[:, 2], gains.lam_ru2),
        (batch.g_si[:, 3, 1], gains.lam_si),
    ):
        result = stats.kstest(samples, "expon", args=(0.0, mean))
        assert result.pvalue > 0.01, f"KS p={result.pvalue} for mean {mean}"


def test_groups_are_uncorrelated():
    params = make_params()
    n = 100_000
    batch = draw_batch(params, (7, 0), n)
    pairs = [
        (batch.g_su1[:, 0], batch.g_ru2[:, 0]),
        (batch.g_br[:, 0, 0], batch.g_si[:, 0, 0]),
        (batch.g_ru1[:, 1], batch.g_br[:, 2, 3]),
    ]
    for x, y in pairs:
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) < 3.0 / math.sqrt(n)


def test_seed_validation():
    # numpy's seed sequences take only non-negative seeds and streams
    with pytest.raises(ValueError):
        draw_batch(make_params(), (-1, 0), 1)
    with pytest.raises(ValueError):
        draw_batch(make_params(), (0, -2), 1)
    with pytest.raises(ValueError):
        draw_batch(make_params(), (0, 0), 0)


def test_dump_realizations_roundtrip(tmp_path, baseline):
    path = tmp_path / "reals.csv"
    dump_realizations(baseline, seed=11, trials=5, path=path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == dump_columns(baseline)
    assert len(rows) == 6
    # replay: row t is trial t of the simulator's block layout, in documented order
    recorded = [float(v) for v in rows[4][1:]]
    expected = row_gains(draw_gains(baseline, (11, 0), 5), 3)
    np.testing.assert_allclose(recorded, expected, rtol=0, atol=0)


@pytest.mark.parametrize(
    "overrides,seed,trials,code",
    [
        ({"rho_s": -100.0}, 1, 5, "SNR_INVALID"),
        ({"m_b": 0}, 1, 5, "ANTENNA_COUNT_INVALID"),
        ({"var_si": math.nan}, 1, 5, "VALUE_NOT_FINITE"),
        ({}, -1, 5, "SEED_INVALID"),
        ({}, 1, 0, "TRIALS_INVALID"),
    ],
)
def test_dump_of_a_bad_request_is_config_error_and_writes_nothing(tmp_path, overrides, seed, trials, code):
    path = tmp_path / "reals.csv"
    with pytest.raises(ConfigError) as info:
        dump_realizations(replace(SystemParams(), **overrides), seed, trials, path)
    assert info.value.code == code
    assert not path.exists()


def test_block_layout_covers_trials_in_order():
    assert list(blocks(5, 2)) == [(0, 0, 2), (1, 2, 2), (2, 4, 1)]
    assert list(blocks(4, 4)) == [(0, 0, 4)]
    assert list(blocks(0)) == []


def test_dump_replays_the_simulated_trials(tmp_path):
    # One antenna everywhere, so every scheme picks (0, 0, 0) and the
    # near-user rate of each dumped row is that trial's simulated rate;
    # three trials spill into a second block.
    params = make_params(m_b=1, m_r=1, m_t=1)
    trials = DEFAULT_BLOCK_SIZE + 3
    path = tmp_path / "reals.csv"
    dump_realizations(params, seed=5, trials=trials, path=path)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 0], np.arange(trials))
    last = row_gains(draw_gains(params, (5, 1), 3), 2)
    np.testing.assert_array_equal(table[-1, 1:], last)
    g_su1, g_ru1 = table[:, 2], table[:, 3]
    r1, _, _ = estimate_rates(params, "max_u1", trials, seed=5)
    assert np.mean(rate_bits(near_sinr(g_su1, g_ru1, params.a1))) == pytest.approx(r1.value, rel=1e-12)
