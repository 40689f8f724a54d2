import math

import numpy as np
import pytest

from fdnoma.results import FAMILY_LEVEL, MetricEstimate, deviation, family_bound


def outage_deviation(events: int, trials: int, p: float) -> float:
    """deviation of an outage of `events` in `trials` from its closed form p."""
    return deviation("outage_u1", MetricEstimate(events / trials, 0.0, trials), p)


def test_rare_outage_judged_on_exact_binomial_tail():
    # 20 dB near-user outage 2.30e-7, 1e6 trials: 3 events (P = 0.17%)
    # read 5.8 se under the normal approximation with se from p.
    assert outage_deviation(3, 10**6, 2.3e-7) <= 4.0
    assert outage_deviation(0, 10**6, 2.3e-7) == 0.0
    assert outage_deviation(10, 10**6, 2.3e-7) > 4.0  # P = 9e-14
    assert outage_deviation(0, 10**6, 3e-5) > 4.0  # 30 expected, P = 1e-13
    assert outage_deviation(1, 10**6, 0.0) == math.inf
    assert outage_deviation(10**6, 10**6, 1.0) == 0.0
    # Within 1e-4 se of 4 se on either side.
    assert 4.0 < outage_deviation(10, 10**6, 1.909e-6) < 4.0001
    assert 3.9999 < outage_deviation(10, 10**6, 1.9091e-6) <= 4.0


def test_binomial_tail_matches_scipy():
    # The stdlib tail against scipy.special's, the one scipy.stats.binom
    # uses, on 400 seeded cases: n = 1e3..1e7, p = 1e-9..0.8, counts
    # within 8 sd of the mean.
    from scipy.special import bdtr, bdtrc, ndtri

    rng = np.random.default_rng(16)
    for _ in range(400):
        trials = int(10 ** rng.uniform(3.0, 7.0))
        p = float(10 ** rng.uniform(-9.0, math.log10(0.8)))
        sd = math.sqrt(trials * p * (1.0 - p))
        events = min(max(round(trials * p + rng.uniform(-8.0, 8.0) * sd), 0), trials)
        tail = bdtrc(events - 1, trials, p) if events >= trials * p else bdtr(events, trials, p)
        expected = max(float(-ndtri(tail)), 0.0)
        assert outage_deviation(events, trials, p) == pytest.approx(expected, rel=0.0, abs=1e-6), (
            events, trials, p)


def test_rate_deviation_is_the_gap_in_its_own_standard_errors():
    assert deviation("rate_u2", MetricEstimate(1.5, 0.01, 10**6), 1.47) == pytest.approx(3.0, rel=1e-12)
    assert deviation("rate_u1", MetricEstimate(1.5, 0.0, 1), 1.5) == 0.0  # no gap, even without an se
    assert deviation("rate_u1", MetricEstimate(1.5, 0.0, 1), 1.4) == math.inf


@pytest.mark.parametrize("comparisons,bound", [(1, 3.2905), (8, 3.8361), (32, 4.1642)])
def test_family_bound_spends_the_family_level_over_both_tails_of_each_comparison(comparisons, bound):
    from scipy.stats import norm

    assert FAMILY_LEVEL == 1e-3
    assert family_bound(comparisons) == pytest.approx(bound, abs=1e-4)
    assert 2.0 * comparisons * norm.sf(family_bound(comparisons)) == pytest.approx(FAMILY_LEVEL, rel=1e-9)
