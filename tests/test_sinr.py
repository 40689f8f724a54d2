import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnoma.montecarlo import SinrBuffers, chosen_sinrs
from fdnoma.selection import SCHEMES, select_batch
from fdnoma.sinr import cross_sinr, near_sinr, rate_bits, relay_sinr

from conftest import batch_from, draw_gains, make_params


@pytest.fixture
def small():
    # 1x1 geometry so the choice is forced; gains set per test via replace
    return make_params(m_b=1, m_r=1, m_t=1)


def single(g=1.0, s=0.0, gsu=1.0, gru1=0.0, gru2=1.0):
    return batch_from([[g]], [gsu], [gru1], [gru2], [[s]])


def sinrs(batch, params, i=0, j=0, k=0):
    """chosen_sinrs of a one-row batch under the choice (i, j, k), as floats."""
    values = chosen_sinrs(batch, np.array([i]), np.array([j]), np.array([k]), params)
    names = ("gamma_1", "gamma_12", "gamma_r", "gamma_2", "g_ru2")
    return {name: float(value[0]) for name, value in zip(names, values)}


class TestRelaySinr:
    def test_no_self_interference(self, small):
        assert sinrs(single(g=1.0, s=0.0), small)["gamma_r"] == pytest.approx(0.6)

    def test_with_interference(self, small):
        assert sinrs(single(g=2.0, s=3.0), small)["gamma_r"] == pytest.approx(1.0 / 3.0)

    def test_approaches_power_ratio_cap(self, small):
        value = sinrs(single(g=1e12, s=5.0), small)["gamma_r"]
        assert 2.999 < value < 3.0


class TestCrossSinr:
    def test_zero_signal(self, small):
        assert sinrs(single(gsu=0.0), small)["gamma_12"] == 0.0

    def test_clean_reception(self, small):
        assert sinrs(single(gsu=4.0, gru1=0.0), small)["gamma_12"] == pytest.approx(1.5)

    def test_shared_ratio_identity(self, small):
        # both near-user SINRs are functions of X = g_su1 / (g_ru1 + 1)
        rng = np.random.default_rng(4)
        gsu, gru1 = rng.exponential(50.0, 200), rng.exponential(2.0, 200)
        x = gsu / (gru1 + 1.0)
        g12 = cross_sinr(gsu, gru1, small.a1, small.a2)
        g1 = near_sinr(gsu, gru1, small.a1)
        assert g12 == pytest.approx(small.a2 * x / (small.a1 * x + 1.0), rel=1e-12)
        assert g1 == pytest.approx(small.a1 * x, rel=1e-12)


class TestNearSinr:
    def test_no_interference(self, small):
        assert sinrs(single(gsu=8.0, gru1=0.0), small)["gamma_1"] == pytest.approx(2.0)

    def test_zero_interference_channel_reduces_to_scaled_gain(self):
        params = make_params(k1=0.0)
        batch = draw_gains(params, (0, 0), 64)
        gamma = near_sinr(batch.g_su1[:, 0], batch.g_ru1[:, 0], params.a1)
        np.testing.assert_allclose(gamma, params.a1 * batch.g_su1[:, 0])

    def test_zero_signal(self, small):
        assert sinrs(single(gsu=0.0), small)["gamma_1"] == 0.0


class TestFarSnr:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_passthrough(self, k):
        params = make_params(m_t=3)
        batch = batch_from([[1.0] * 4], [1.0], [0.1, 0.2, 0.3], [5.0, 6.0, 7.0], [[0.0] * 3] * 4)
        # geometry here: m_b=1, m_r=4, m_t=3
        assert sinrs(batch, params, k=k)["g_ru2"] == batch.g_ru2[0, k]


class TestEndToEnd:
    def test_minimum_of_components(self, small):
        # components: gamma_12 = 0.6 (gsu=1, gru1=0), gamma_r = 0.5, gamma_ru2 = 10
        values = sinrs(single(g=0.8, s=0.0, gsu=1.0, gru1=0.0, gru2=10.0), small)
        assert values["gamma_12"] == pytest.approx(0.6)
        assert values["gamma_r"] == pytest.approx(0.5)
        assert values["gamma_2"] == pytest.approx(0.5)

    def test_dead_relay_link(self, small):
        assert sinrs(single(gru2=0.0), small)["gamma_2"] == 0.0

    def test_bounded_by_power_ratio(self):
        params = make_params()
        cap = params.a2 / params.a1
        batch = draw_gains(params, (21, 0), 100_000)
        g12 = cross_sinr(batch.g_su1[:, 0], batch.g_ru1[:, 0], params.a1, params.a2)
        gr = relay_sinr(batch.g_br[:, 0, 0], batch.g_si[:, 0, 0], params.a1, params.a2)
        assert np.all(g12 < cap)
        assert np.all(gr < cap)
        # either leg can be the bottleneck
        assert np.any(g12 > gr) and np.any(gr > g12)


class TestRates:
    @pytest.mark.parametrize("gamma,expected", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
    def test_spot_values(self, gamma, expected):
        assert rate_bits(gamma) == pytest.approx(expected)
        assert rate_bits(np.array([gamma, gamma])) == pytest.approx([expected, expected])

    def test_far_rate_below_cap(self, baseline):
        cap_rate = math.log2(1.0 + baseline.a2 / baseline.a1)
        assert cap_rate == 2.0
        batch = draw_gains(baseline, (5, 0), 1000
        )
        g12 = cross_sinr(batch.g_su1[:, 0], batch.g_ru1[:, 0], baseline.a1, baseline.a2)
        assert np.all(np.log1p(g12) / math.log(2) < cap_rate)


def test_monotonicity_in_each_gain(small):
    base = dict(g=2.0, s=1.0, gsu=3.0, gru1=0.5, gru2=4.0)
    value = sinrs(single(**base), small)["gamma_2"]
    eps = 1e-3
    up = lambda key: sinrs(single(**{**base, key: base[key] + eps}), small)["gamma_2"]
    assert up("g") >= value
    assert up("gru2") >= value
    assert up("s") <= value
    assert up("gru1") <= value


def test_out_of_range_choice_rejected(baseline):
    batch = draw_gains(baseline, (1, 0), 1)
    with pytest.raises(IndexError):
        sinrs(batch, baseline, i=4)
    with pytest.raises(IndexError):
        sinrs(batch, baseline, k=4)


@given(
    g=st.floats(min_value=0.0, max_value=1e12),
    s=st.floats(min_value=0.0, max_value=1e12),
)
@settings(max_examples=200, deadline=None)
def test_relay_sinr_always_in_range(g, s):
    value = relay_sinr(g, s, 0.25, 0.75)
    assert 0.0 <= value < 3.0


# The SINR formulas as plain expressions, the oracle of the kernels and of chosen_sinrs.

def plain_power_share_sinr(gain, interference, a1, a2):
    return a2 * gain / (a1 * gain + interference + 1.0)


def plain_near_sinr(g_su1, g_ru1, a1):
    return a1 * g_su1 / (g_ru1 + 1.0)


@pytest.mark.parametrize(
    "kernel, plain",
    [
        (partial(relay_sinr, a1=0.3, a2=0.7), partial(plain_power_share_sinr, a1=0.3, a2=0.7)),
        (partial(cross_sinr, a1=0.3, a2=0.7), partial(plain_power_share_sinr, a1=0.3, a2=0.7)),
        (partial(near_sinr, a1=0.3), partial(plain_near_sinr, a1=0.3)),
    ],
    ids=["relay_sinr", "cross_sinr", "near_sinr"],
)
def test_kernels_equal_their_plain_expressions_bit_for_bit(kernel, plain):
    # Without buffers, on scalars, and in place, as chosen_sinrs and the joint
    # search call them; near_sinr's scratch may be the interference itself.
    # The power split is no power of two, so a reordered product would show.
    rng = np.random.default_rng(8)
    gain, interference = rng.exponential(100.0, 5_000), rng.exponential(3.0, 5_000)
    want = plain(gain, interference)
    assert kernel(gain, interference).tobytes() == want.tobytes()
    assert kernel(float(gain[0]), float(interference[0])) == want[0]
    out, scratch = np.empty_like(gain), np.empty_like(gain)
    assert kernel(gain, interference, out=out, scratch=scratch) is out
    assert out.tobytes() == want.tobytes()
    if kernel.func is near_sinr:
        spent = interference.copy()
        assert kernel(gain, spent, out=out, scratch=spent).tobytes() == want.tobytes()
        assert spent.tobytes() == (interference + 1.0).tobytes()


def indexed_sinrs(batch, ii, jj, kk, params):
    """Oracle for chosen_sinrs: advanced indexing into the batch, then the plain expressions."""
    rows = np.arange(batch.count)
    gamma_r = plain_power_share_sinr(batch.g_br[rows, ii, jj], batch.g_si[rows, jj, kk], params.a1, params.a2)
    g_su1 = batch.g_su1[rows, ii]
    g_ru1 = batch.g_ru1[rows, kk]
    g_ru2 = batch.g_ru2[rows, kk]
    gamma_12 = plain_power_share_sinr(g_su1, g_ru1, params.a1, params.a2)
    gamma_1 = plain_near_sinr(g_su1, g_ru1, params.a1)
    gamma_2 = np.minimum(np.minimum(gamma_12, gamma_r), g_ru2)
    return gamma_1, gamma_12, gamma_r, gamma_2, g_ru2


@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 5, 2), (8, 8, 8)], ids=["4x4x4", "3x5x2", "8x8x8"])
def test_chosen_sinrs_equal_advanced_indexing_bit_for_bit(shape):
    # Every scheme's choice, gathered through flat indices into fresh buffers
    # and into one reused set larger than the batch, after a larger batch.
    # The power split is no power of two, so a reordered product would show.
    params = make_params(m_b=shape[0], m_r=shape[1], m_t=shape[2], a1=0.3, a2=0.7)
    names = ("gamma_1", "gamma_12", "gamma_r", "gamma_2", "g_ru2")
    reused = SinrBuffers(3_000)
    for entropy, count in (((31, 0), 3_000), ((31, 1), 1_001)):
        batch = draw_gains(params, entropy, count)
        rng = np.random.default_rng(5)
        for scheme in SCHEMES:
            choice = select_batch(scheme, batch, params, rng)
            want = indexed_sinrs(batch, *choice, params)
            for out in (None, reused):
                for name, got, value in zip(names, chosen_sinrs(batch, *choice, params, out), want):
                    assert got.shape == (count,) and got.tobytes() == value.tobytes(), (scheme, name, out)


@pytest.mark.parametrize("axis", ["i", "j", "k"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_choice_in_any_row_rejected(baseline, axis, bad):
    # A flat index would read a neighbouring row; the gather refuses instead.
    batch = draw_gains(baseline, (1, 0), 3)
    choice = {name: np.zeros(3, dtype=np.intp) for name in "ijk"}
    choice[axis][1] = bad
    with pytest.raises(IndexError, match=f"chosen {axis}"):
        chosen_sinrs(batch, choice["i"], choice["j"], choice["k"], baseline)
