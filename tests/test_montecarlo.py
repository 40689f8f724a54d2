import ast
import collections
import concurrent.futures
import csv
import functools
import gc
import hashlib
import io
import json
import math
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnoma import analytic, cli, montecarlo, results, selection
from fdnoma.channel import DEFAULT_BLOCK_SIZE, GROUPS, blocks, draw_batch
from fdnoma.config import (
    KNOWN_METRICS, ConfigError, PowerGrid, SweepSpec, SystemParams, default_params, mean_gains, power_points
)
from fdnoma.analytic import ANALYTIC_SCHEMES, analytic_sweep, closed_form_sets
from fdnoma.montecarlo import (
    _metric_set,
    _simulate,
    estimate_metrics,
    estimate_outage,
    estimate_rates,
    run_sweep,
)
from fdnoma.results import CSV_COLUMNS, MetricEstimate, MetricSet, SweepRow, jain_index, write_csv
from fdnoma.selection import SCHEMES, select_batch
from fdnoma.sinr import rate_bits

from conftest import (
    chosen_sinrs, draw_gains, make_params, oracle_write_csv, power_points_oracle, rows_to_csv_text, run_fresh, scaled,
    tile_rows,
)


class TestJainIndex:
    def test_equal_rates_fully_fair(self):
        assert jain_index(1.0, 1.0) == 1.0

    def test_single_user_least_fair(self):
        assert jain_index(1.0, 0.0) == 0.5
        assert jain_index(0.0, 2.0) == 0.5

    def test_two_to_one_split(self):
        assert jain_index(2.0, 1.0) == pytest.approx(0.9)

    def test_degenerate_flagged(self):
        with pytest.warns(RuntimeWarning, match="jain_index"):
            assert jain_index(0.0, 0.0) == 1.0

    @given(
        r1=st.floats(min_value=0.0, max_value=100.0),
        r2=st.floats(min_value=1e-6, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, r1, r2):
        assert 0.5 <= jain_index(r1, r2) <= 1.0

    @pytest.mark.parametrize("rates,index", [((4.58e-177, 4.84e-200), 0.5),
                                             ((2.0208118992002043e-178, 1.9846715590186586e-177), 0.60077617528345117)])
    def test_rates_whose_squares_underflow(self, rates, index):
        # Closed-form and simulated rates of a valid set: both squares underflow to 0, and the
        # index divided by their sum.
        assert rates[0] ** 2 + rates[1] ** 2 == 0.0
        assert jain_index(*rates) == index

    @given(
        r1=st.floats(min_value=1e-100, max_value=1e100),
        r2=st.floats(min_value=1e-100, max_value=1e100),
        shift=st.integers(min_value=-600, max_value=600),
    )
    @settings(max_examples=200, deadline=None)
    def test_plain_formula_and_scale_invariance_bit_for_bit(self, r1, r2, shift):
        # Where no square leaves the float range the index is the plain formula's, bit for bit, and
        # rates scaled by a power of two give the same bits.  The square of the sum is a product, as
        # in the unscaled function: ** goes through libm's pow, which can round an ulp away from it
        # (0.14887433898163122 ** 2).
        total = r1 + r2
        plain = total * total / (2.0 * (r1 * r1 + r2 * r2))
        assert jain_index(r1, r2) == min(max(plain, 0.5), 1.0)
        assert jain_index(math.ldexp(r1, shift), math.ldexp(r2, shift)) == jain_index(r1, r2)


class TestEstimateRates:
    def test_sum_is_exactly_componentwise(self, baseline):
        r1, r2, rs = estimate_rates(baseline, "max_u1", 20_000, seed=3)
        assert rs.value == r1.value + r2.value
        assert rs.trials == r1.trials == 20_000

    def test_vanishing_power_vanishing_rates(self):
        params = make_params(rho_s=1e-9, rho_r=1e-9)
        r1, r2, _ = estimate_rates(params, "max_u1", 5_000, seed=1)
        assert r1.value < 1e-6
        assert r2.value < 1e-6

    def test_far_rate_below_cap(self, baseline):
        _, r2, _ = estimate_rates(baseline, "max_u2_exhaustive", 50_000, seed=2)
        assert r2.value < 2.0

    def test_matches_closed_form(self, baseline):
        r1, r2, _ = estimate_rates(baseline, "max_u1_analytic", 150_000, seed=11)
        assert abs(r1.value - analytic.rate_u1_max_u1(baseline)) < 3.0 * r1.std_error
        assert abs(r2.value - analytic.rate_u2_max_u1(baseline).value) < 3.0 * r2.std_error

    def test_deterministic(self, baseline):
        a = estimate_rates(baseline, "max_u1", 10_000, seed=9)
        b = estimate_rates(baseline, "max_u1", 10_000, seed=9)
        assert a == b

    def test_block_size_does_not_change_draws_within_block_grid(self, baseline):
        # same block size, different call: partials reduced in block order
        a, b = (
            _metric_set(_simulate(PowerGrid.at(baseline), ("max_u1",), 30_000, (9,), block_size=1 << 14)[0]["max_u1"],
                        KNOWN_METRICS)
            for _ in range(2)
        )
        assert a == b


class TestEstimateOutage:
    def test_infeasible_threshold(self):
        params = make_params(rate2=2.0)  # threshold hits a2/a1
        assert analytic.zeta(params) == math.inf
        for estimate in estimate_outage(params, "max_u1", 1000, seed=1):
            assert (estimate.value, estimate.std_error, estimate.trials) == (1.0, 0.0, 1000)

    def test_params_past_the_cap_are_validated(self):
        # A set is checked as it is made: one past the cap is no exception.
        with pytest.raises(ConfigError) as info:
            estimate_outage(replace(SystemParams(), rate2=10.0, var_br=-1.0), "max_u1", 10, 1)
        assert info.value.code == "VARIANCE_INVALID"

    def test_unknown_scheme_past_the_cap_is_rejected(self):
        with pytest.raises(ValueError, match="no_such_scheme"):
            estimate_outage(make_params(rate2=10.0), "no_such_scheme", 10, 1)

    def test_matches_closed_form(self, baseline):
        trials = 400_000
        outage_u1, outage_u2 = estimate_outage(baseline, "max_u2_decoupled", trials, seed=13)
        for estimate, target in (
            (outage_u1, analytic.outage_u1_max_u2(baseline)),
            (outage_u2, analytic.outage_u2_max_u2(baseline)),
        ):
            se = math.sqrt(target * (1.0 - target) / trials)
            assert abs(estimate.value - target) < 4.0 * se

    def test_estimates_in_unit_interval(self, baseline):
        for estimate in estimate_outage(baseline, "random", 20_000, seed=4):
            assert 0.0 <= estimate.value <= 1.0


@pytest.fixture(scope="module")
def overrides(request):
    return request.param


@pytest.fixture(scope="module")
def all_schemes_together(overrides):
    return estimate_metrics(make_params(**overrides), SCHEMES, 70_001, 9)


# rate2 = 2 puts the far-user threshold past the a2/a1 cap.
@pytest.mark.parametrize("overrides", [{}, {"rate2": 2.0}, {"m_b": 3, "m_r": 5, "m_t": 2}], indirect=True)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_estimate_metrics_equals_separate_estimates(scheme, overrides, all_schemes_together):
    # One simulation of all schemes gives each scheme the rates and outages
    # of two single-scheme simulations with the same seed.
    params = make_params(**overrides)
    assert tuple(all_schemes_together) == SCHEMES
    metrics = all_schemes_together[scheme]
    rates = estimate_rates(params, scheme, 70_001, 9)
    assert (metrics.rate_u1, metrics.rate_u2, metrics.rate_sum) == rates
    assert (metrics.outage_u1, metrics.outage_u2) == estimate_outage(params, scheme, 70_001, 9)


def test_empty_scheme_list_is_config_error_and_draws_nothing(baseline, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a simulation of no scheme drew a block")

    monkeypatch.setattr(montecarlo, "draw_batch", no_draw)
    for simulate in (lambda: estimate_metrics(baseline, (), 200_000, 1),
                     lambda: _simulate(PowerGrid.at(baseline), (), 10, (1,), workers=2)):
        with pytest.raises(ConfigError) as info:
            simulate()
        assert info.value.code == "SWEEP_EMPTY"


def test_repeated_scheme_is_simulated_once(baseline):
    once = estimate_metrics(baseline, ("max_u1",), 20_000, 3)
    twice = estimate_metrics(baseline, ("max_u1", "max_u1"), 20_000, 3)
    assert twice == once


@pytest.mark.parametrize("trials,seed,code", [(0, 1, "TRIALS_INVALID"), (-5, 1, "TRIALS_INVALID"),
                                             (10, -1, "SEED_INVALID")])
@pytest.mark.parametrize("estimate", [estimate_rates, estimate_outage])
def test_bad_trials_or_seed_is_config_error(baseline, estimate, trials, seed, code):
    with pytest.raises(ConfigError) as info:
        estimate(baseline, "max_u1", trials, seed)
    assert info.value.code == code


def test_threshold_event_reduces_to_ratio_threshold(baseline):
    # dual oracle: the joint decoding event matches a single comparison of
    # X = g_su1 / (g_ru1 + 1) against the combined threshold
    from fdnoma.selection import select_batch
    from fdnoma.sinr import cross_sinr, near_sinr

    theta1, theta2 = analytic.thresholds(baseline)
    z = analytic.zeta(baseline)
    n = 100_000
    batch = draw_gains(baseline, (2029, 0), n)
    ii, _, kk = select_batch("max_u1", batch, baseline)
    rows = np.arange(n)
    gsu, gru1 = batch.g_su1[rows, ii], batch.g_ru1[rows, kk]
    joint = (cross_sinr(gsu, gru1, baseline.a1, baseline.a2) > theta2) & (
        near_sinr(gsu, gru1, baseline.a1) > theta1
    )
    reduced = gsu / (gru1 + 1.0) > z
    np.testing.assert_array_equal(joint, reduced)


def test_only_the_rates_and_outages_carry_standard_errors():
    # The rates carry the standard errors of their per-trial means and the outage frequencies
    # binomial ones.  The sum rate and Jain's index, whose standard errors no output reads, carry
    # math.nan, the one object, so that equal runs still give equal records; closed forms carry 0.
    params, trials = make_params(rho_s=1.0, rho_r=1.0), 4_096  # 0 dB, where both users are in outage at times
    metrics = estimate_metrics(params, ("max_u1_analytic",), trials, 5)["max_u1_analytic"]
    batch = draw_gains(params, (5, 0), trials)
    gamma_1, gamma_12, gamma_r, gamma_2, g_ru2 = chosen_sinrs(
        batch, *select_batch("max_u1_analytic", batch, params), params
    )
    for estimate, rates in ((metrics.rate_u1, rate_bits(gamma_1)), (metrics.rate_u2, rate_bits(gamma_2))):
        assert estimate.std_error == pytest.approx(np.std(rates, ddof=1) / math.sqrt(trials), rel=1e-9)
    theta1, theta2 = analytic.thresholds(params)
    for estimate, met in ((metrics.outage_u1, (gamma_12 > theta2) & (gamma_1 > theta1)),
                          (metrics.outage_u2, (gamma_r > theta2) & (g_ru2 > theta2))):
        p = 1.0 - np.count_nonzero(met) / trials
        assert estimate.value == pytest.approx(p, abs=1e-15)
        assert estimate.std_error == math.sqrt(estimate.value * (1.0 - estimate.value) / trials) > 0.0
    assert metrics.rate_sum.std_error is math.nan and metrics.jain_index.std_error is math.nan
    assert metrics == estimate_metrics(params, ("max_u1_analytic",), trials, 5)["max_u1_analytic"]
    (closed,) = closed_form_sets(PowerGrid.at(params), "max_u1_analytic", KNOWN_METRICS)
    assert {estimate.std_error for estimate in closed} == {0.0}


def test_standard_error_halves_when_trials_quadruple(baseline):
    _, r2_small, _ = estimate_rates(baseline, "max_u1", 20_000, seed=6)
    _, r2_large, _ = estimate_rates(baseline, "max_u1", 80_000, seed=7)
    ratio = r2_small.std_error / r2_large.std_error
    assert ratio == pytest.approx(2.0, rel=0.2)


class TestRunSweep:
    def test_single_point_single_scheme(self, baseline):
        spec = SweepSpec(power_db=(10.0,), schemes=("max_u1",), trials=5_000, seed=1)
        rows = run_sweep(baseline, spec)
        assert len(rows) == 1
        assert rows[0].power_db == 10.0
        assert rows[0].kind == "monte_carlo"

    def test_common_random_numbers_make_dominance_exact(self, baseline):
        spec = SweepSpec(
            power_db=(0.0, 15.0, 30.0),
            schemes=("optimum_sumrate", "max_u1", "random"),
            trials=20_000,
            seed=5,
        )
        rows = run_sweep(baseline, spec)
        by_point = {}
        for row in rows:
            by_point.setdefault(row.power_db, {})[row.scheme] = row.metrics
        for point, metrics in by_point.items():
            assert metrics["optimum_sumrate"].rate_sum.value >= metrics["max_u1"].rate_sum.value
            assert metrics["optimum_sumrate"].rate_sum.value >= metrics["random"].rate_sum.value

    def test_relay_power_override(self, baseline):
        spec = SweepSpec(
            power_db=(0.0, 10.0),
            schemes=("max_u1",),
            trials=2_000,
            seed=2,
            relay_power_db=20.0,
        )
        rows = run_sweep(baseline, spec)
        assert len(rows) == 2

    def test_metric_selection_leaves_nan(self, baseline):
        spec = SweepSpec(
            power_db=(10.0,), schemes=("max_u1",), metrics=("rates",), trials=2_000, seed=1
        )
        row = run_sweep(baseline, spec)[0]
        assert not math.isnan(row.metrics.rate_u1.value)
        assert math.isnan(row.metrics.outage_u1.value)
        assert math.isnan(row.metrics.jain_index.value)

    def test_unknown_metric_is_config_error(self, baseline):
        with pytest.raises(ConfigError) as info:
            run_sweep(baseline, SweepSpec(power_db=(10.0,), schemes=("max_u1",), metrics=("rate",), trials=100))
        assert info.value.code == "SWEEP_METRIC_UNKNOWN"

    def test_jain_within_bounds(self, baseline):
        spec = SweepSpec(power_db=(20.0,), schemes=("max_u2_exhaustive",), trials=20_000, seed=8)
        row = run_sweep(baseline, spec)[0]
        assert 0.5 <= row.metrics.jain_index.value <= 1.0


@pytest.fixture(scope="module")
def crn_rows():
    """CSV line of each scheme in a fixed-seed sweep, keyed by the sweep's scheme list."""
    params = default_params(20.0)
    cache = {}

    def lines(schemes):
        if schemes not in cache:
            spec = SweepSpec(power_db=(0.0, 20.0), schemes=schemes, trials=70_001, seed=41)
            text = rows_to_csv_text(run_sweep(params, spec)).splitlines()[1:]
            cache[schemes] = {(line.split(",")[0], line.split(",")[1]): line for line in text}
        return cache[schemes]

    return lines


@pytest.mark.parametrize(
    "scheme,partner",
    [
        ("max_u2_exhaustive", "optimum_sumrate"),
        ("optimum_sumrate", "max_u2_exhaustive"),
        ("random", "max_u2_exhaustive"),
    ],
)
def test_scheme_rows_do_not_depend_on_the_other_schemes(crn_rows, scheme, partner):
    # A scheme's rows are byte-identical whether it runs alone, beside a
    # joint-search partner (sharing one pass) or with all six schemes.
    alone = crn_rows((scheme,))
    for others in ((scheme, partner), (partner, scheme), SCHEMES):
        rows = crn_rows(others)
        for key, line in alone.items():
            assert rows[key] == line, (scheme, others)


def sequential_simulate(grid, schemes, trials, entropy_base, block_size):
    """Reference for _simulate: per point, one block after another in the calling thread,
    each drawn fresh from the stream (*entropy_base, block) and scaled to the point's mean
    gains on the test side (conftest.scaled), and each scheme selected on it alone, each
    block's (trials, sums of r1, r2, r1^2 and r2^2, the two outage counts) appended in block
    order."""
    per_point, params = [], grid.params
    theta1, theta2 = analytic.thresholds(params)
    for means in grid.gains:
        per_block = {scheme: [] for scheme in schemes}
        for index, _, count in blocks(trials, block_size):
            batch = scaled(draw_batch(params, (*entropy_base, index), count).at(means))
            for scheme, sums in per_block.items():
                seed = np.random.SeedSequence((*entropy_base, index, montecarlo._RANDOM_SALT))
                choice = select_batch(scheme, batch, params, np.random.default_rng(seed))
                gamma_1, gamma_12, gamma_r, gamma_2, g_ru2 = chosen_sinrs(batch, *choice, params)
                r1, r2 = rate_bits(gamma_1), rate_bits(gamma_2)
                sums.append((
                    count,
                    *(float(np.sum(values)) for values in (r1, r2, r1 * r1, r2 * r2)),
                    int(np.count_nonzero(~((gamma_12 > theta2) & (gamma_1 > theta1)))),
                    int(np.count_nonzero(~((gamma_r > theta2) & (g_ru2 > theta2)))),
                ))
        per_point.append(per_block)
    return per_point


def csv_by_worker_count(params, spec, tmp_path, monkeypatch, block_size):
    """Sweep CSV bytes from sequential_simulate and from _simulate on 1, 2 and 3 workers."""
    runs = {"sequential": functools.partial(sequential_simulate, block_size=block_size)}
    runs.update({w: functools.partial(_simulate, block_size=block_size, workers=w) for w in (1, 2, 3)})
    written = {}
    for label, simulate in runs.items():
        monkeypatch.setattr(montecarlo, "_simulate", simulate)
        path = tmp_path / f"{label}.csv"
        write_csv(run_sweep(params, spec), path)
        written[label] = path.read_bytes()
    assert len(written["sequential"].splitlines()) == 1 + len(spec.power_db) * len(spec.schemes)
    return written


@pytest.mark.parametrize(
    "overrides,power_db",
    [
        ({}, (0.0, 20.0)),
        ({"m_b": 3, "m_r": 5, "m_t": 2}, (0.0, 20.0)),
        ({}, (20.0,)),
        ({"k1": 0.0}, (0.0, 20.0)),
        # every mean gain reaches both ends of GAIN_RANGE, 1e-100 and 1e100
        ({"k1": 1.0, "var_si": 1.0}, (-1000.0, 0.0, 1000.0)),
    ],
    ids=["overrides0", "overrides1", "one-point", "k1=0", "gain-range-ends"],
)
def test_sweep_csv_is_byte_identical_for_any_worker_count(overrides, power_db, tmp_path, monkeypatch, fast_switching):
    # Six schemes; 40,001 trials in blocks of 2**14 leave a ragged last
    # block of 7,233.  Blocks run on 1, 2 or 3 threads, switched often, and
    # each CSV must equal the one drawn at each point's powers and reduced
    # block by block in the calling thread.
    spec = SweepSpec(power_db=power_db, schemes=SCHEMES, trials=40_001, seed=17)
    written = csv_by_worker_count(make_params(**overrides), spec, tmp_path, monkeypatch, 1 << 14)
    for workers in (1, 2, 3):
        assert written[workers] == written["sequential"], workers


@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 5, 2), (8, 8, 8)], ids=["4x4x4", "3x5x2", "8x8x8"])
@pytest.mark.parametrize("where", ["one", "tile-1", "tile+1", "block", "short-last"])
def test_single_block_csv_is_byte_identical_for_any_worker_count(
    shape, where, tmp_path, monkeypatch, fast_switching
):
    # One block per point, up to a whole default block, runs in the calling thread
    # whatever the worker count; 70,001 trials make five blocks, the last one short,
    # on the workers' threads.  Two points reuse each thread's buffer set.
    params = make_params(m_b=shape[0], m_r=shape[1], m_t=shape[2])
    tile = tile_rows(params)
    trials = {"one": 1, "tile-1": tile - 1, "tile+1": tile + 1, "block": DEFAULT_BLOCK_SIZE,
              "short-last": 70_001}[where]
    spec = SweepSpec(power_db=(0.0, 20.0), schemes=SCHEMES, trials=trials, seed=29)
    written = csv_by_worker_count(params, spec, tmp_path, monkeypatch, DEFAULT_BLOCK_SIZE)
    for workers in (1, 2, 3):
        assert written[workers] == written["sequential"], workers


@pytest.mark.parametrize(
    "overrides,power_db,relay_db,trials",
    [
        ({}, (0.0, 10.0, 20.0, 30.0), None, 3_001),
        ({}, (0.0, 30.0), None, DEFAULT_BLOCK_SIZE + 5),
        ({"m_b": 3, "m_r": 5, "m_t": 2}, (0.0, 20.0), None, 3_001),
        ({"k1": 0.0}, (0.0, 15.0, 30.0), None, 3_001),
        ({}, (0.0, 30.0), 15.0, 3_001),
        # every mean gain reaches both ends of GAIN_RANGE, 1e-100 and 1e100
        ({"k1": 1.0, "var_si": 1.0}, (-1000.0, 0.0, 1000.0), None, 3_001),
    ],
    ids=["4x4x4", "two-blocks", "3x5x2", "k1=0", "relay-fixed", "gain-range-ends"],
)
def test_every_sweep_row_equals_estimate_metrics_at_its_point(overrides, power_db, relay_db, trials):
    # The points of a sweep share each block's unit draws and the stage-wise schemes' choices;
    # each row must still be the one-point simulation at its powers, bit for bit.
    params = make_params(**overrides)
    spec = SweepSpec(power_db=power_db, schemes=SCHEMES, trials=trials, seed=23, relay_power_db=relay_db)
    alone = [
        SweepRow(power_db=power, scheme=scheme, kind=results.MONTE_CARLO, trials=trials, metrics=metrics)
        for power, point in zip(power_db, power_points_oracle(params, spec))
        for scheme, metrics in estimate_metrics(point, SCHEMES, trials, spec.seed).items()
    ]
    assert rows_to_csv_text(run_sweep(params, spec)) == rows_to_csv_text(alone)


def planted_pair_batch(params, seed=5, count=64):
    """Unit draws with one planted row per stage-wise stage: two adjacent floats that
    scaling by 1 + 2**-52 rounds to one value, the later of them the unit pick."""
    unit = draw_batch(params, (seed, 0), count)
    low, high = 2.0 - 2.0**-51, 2.0 - 2.0**-52
    unit.g_su1[0, :2] = (low, high)  # argmax: the unit pick is index 1
    unit.g_ru2[1, :2] = (low, high)
    unit.g_ru1[2, :2] = (high, low)  # argmin: the unit pick is index 1
    for row in range(3):  # no other antenna competes with the planted pair
        for group, value in ((unit.g_su1, 0.5), (unit.g_ru2, 0.5), (unit.g_ru1, 3.0)):
            group[row, 2:] = value
    return unit


@pytest.mark.parametrize("scheme", [*selection.ORDER_SCHEMES, "max_u1"])
@pytest.mark.parametrize(
    "overrides,power_db",
    [({}, (-20.0, 0.0, 20.0, 40.0)), ({"k1": 0.0}, (0.0, 30.0)), ({"m_b": 3, "m_r": 5, "m_t": 2}, (10.0,))],
    ids=["4x4x4", "k1=0", "3x5x2"],
)
def test_shared_choice_equals_select_batch_on_the_scaled_batch(scheme, overrides, power_db):
    # An ORDER_SCHEMES scheme's one choice on the draws, and max_u1's on them at each point's
    # means, equal the choice on the gains at the point's powers, scaled on the test side.
    params = make_params(**overrides)
    entropy = (31, 2)

    def select(batch, point):
        rng = np.random.default_rng(np.random.SeedSequence((*entropy, montecarlo._RANDOM_SALT)))
        return select_batch(scheme, batch, point, rng)

    drawn = draw_batch(params, entropy, 20_000)
    shared = select(drawn, params)
    for point in power_points_oracle(params, SweepSpec(power_db=power_db, schemes=(scheme,))):
        expected = select(draw_gains(point, entropy, drawn.count), point)
        got = select(drawn.at(mean_gains(point)), point) if scheme == "max_u1" else shared
        for axis in range(3):
            np.testing.assert_array_equal(got[axis], expected[axis])


@pytest.mark.parametrize(
    "overrides,power_db",
    [
        ({}, (0.0, 20.0)),
        ({"k1": 0.0}, (0.0, 30.0)),
        ({"m_b": 3, "m_r": 5, "m_t": 2}, (10.0,)),
        # every mean gain reaches both ends of GAIN_RANGE, 1e-100 and 1e100
        ({"k1": 1.0, "var_si": 1.0}, (-1000.0, 0.0, 1000.0)),
    ],
    ids=["4x4x4", "k1=0", "3x5x2", "gain-range-ends"],
)
def test_a_batch_read_at_a_point_equals_its_gains_scaled_on_the_test_side(overrides, power_db):
    # Every scheme's choice and every gathered SINR on draw_batch(params).at(point), which scale
    # the draws as they read them, equal those on the gains scaled by conftest.scaled, bit for bit.
    params = make_params(**overrides)
    entropy = (37, 1)
    drawn = draw_batch(params, entropy, 5_000)
    names = ("gamma_1", "gamma_12", "gamma_r", "gamma_2", "g_ru2")
    for point in power_points_oracle(params, SweepSpec(power_db=power_db, schemes=SCHEMES)):
        batch = drawn.at(mean_gains(point))
        gains = scaled(batch)
        for scheme in SCHEMES:
            got = select_batch(scheme, batch, point, montecarlo._rng(scheme, entropy))
            want = select_batch(scheme, gains, point, montecarlo._rng(scheme, entropy))
            for axis in range(3):
                np.testing.assert_array_equal(got[axis], want[axis], err_msg=scheme)
            for name, a, b in zip(names, chosen_sinrs(batch, *want, point), chosen_sinrs(gains, *want, point)):
                assert a.tobytes() == b.tobytes(), (scheme, name, point.rho_s)


@pytest.mark.parametrize("scheme", ["max_u1", "max_u1_analytic", "max_u2_decoupled"])
def test_a_planted_pair_follows_the_draws(scheme):
    # Each planted pair is two draws that one mean rounds to a single gain: the pick is the
    # extreme draw, not the lowest index of the tied gains, and its gain is still the extreme.
    lam = 1.0 + 2.0**-52
    params = make_params(rho_s=1.0, rho_r=1.0, k1=1.0, var_bu1=lam, var_ru1=lam, var_ru2=lam)
    unit = planted_pair_batch(params)
    means = unit.means
    choice = select_batch(scheme, unit, params)
    # (group, planted row, axis of the pick, the stage's extreme)
    stages = {"max_u2_decoupled": (("g_ru2", 1, 2, np.max),)}.get(
        scheme, (("g_su1", 0, 0, np.max), ("g_ru1", 2, 2, np.min))
    )
    for group, row, axis, extreme in stages:
        draws = getattr(unit, group)[row]
        gains = draws * means[GROUPS.index(group)]
        assert draws[0] != draws[1] and gains[0] == gains[1]
        pick = choice[axis][row]
        assert pick == 1 and draws[pick] == extreme(draws)
        assert gains[pick] == extreme(gains)
    if scheme == "max_u1":  # the closed-form variant makes the same first-stage picks, so the same rate_u1
        same_stage = select_batch("max_u1_analytic", unit, params)
        for axis in (0, 2):
            np.testing.assert_array_equal(choice[axis], same_stage[axis])


def test_a_sweep_draws_each_block_once_and_selects_the_order_schemes_once(monkeypatch):
    # 3 blocks at 4 points or at one: 3 draws, each of the sweep's own parameter set, one selection
    # per block for each ORDER_SCHEMES scheme, one per block and point for max_u1, which reads
    # ratios across groups.
    draws, selections = [], []
    draw, select = montecarlo.draw_batch, montecarlo.select_batch

    def counting_draw(params, entropy, count, into=None):
        draws.append((entropy, mean_gains(params)))
        return draw(params, entropy, count, into)

    def counting_select(scheme, *args):
        selections.append(scheme)
        return select(scheme, *args)

    monkeypatch.setattr(montecarlo, "draw_batch", counting_draw)
    monkeypatch.setattr(montecarlo, "select_batch", counting_select)
    schemes = ("max_u1", *selection.ORDER_SCHEMES)
    for overrides, power_db in (({}, (0.0, 10.0, 20.0, 30.0)), ({}, (20.0,)), ({"k1": 0.0}, (20.0,))):
        draws.clear()
        selections.clear()
        spec = SweepSpec(power_db=power_db, schemes=schemes, trials=2 * DEFAULT_BLOCK_SIZE + 1, seed=3)
        params = make_params(m_b=2, m_r=2, m_t=2, **overrides)
        run_sweep(params, spec)
        assert sorted(draws) == [((3, block), mean_gains(params)) for block in range(3)]
        counts = collections.Counter(selections)
        assert counts == {"max_u1": 3 * len(power_db), **{scheme: 3 for scheme in selection.ORDER_SCHEMES}}


def test_a_sweep_gathers_each_order_scheme_once_per_block(monkeypatch):
    # 3 blocks at 4 points or at one: each ORDER_SCHEMES scheme gathers its chosen draws once per
    # block for every point; max_u1 and a joint search choose, and so gather, per block and point.
    # A gather's scheme is the owner of the choice slot it reads, the slot its selection wrote.
    owner, gathers = {}, []
    select, search, gather = montecarlo.select_batch, montecarlo.joint_search, montecarlo.gather_draws

    def owning_select(scheme, batch, params, rng=None, out=None):
        owner[out[0].ctypes.data] = scheme
        return select(scheme, batch, params, rng, out)

    def owning_search(batch, params, choices):
        owner.update((choice[0].ctypes.data, scheme) for scheme, choice in choices.items())
        return search(batch, params, choices)

    def counting_gather(batch, ii, *rest):
        gathers.append(owner[ii.ctypes.data])
        return gather(batch, ii, *rest)

    monkeypatch.setattr(montecarlo, "select_batch", owning_select)
    monkeypatch.setattr(montecarlo, "joint_search", owning_search)
    monkeypatch.setattr(montecarlo, "gather_draws", counting_gather)
    schemes = ("max_u1", *selection.ORDER_SCHEMES, "max_u2_exhaustive")
    for power_db in ((0.0, 10.0, 20.0, 30.0), (20.0,)):
        gathers.clear()
        spec = SweepSpec(power_db=power_db, schemes=schemes, trials=2 * DEFAULT_BLOCK_SIZE + 1, seed=3)
        run_sweep(make_params(m_b=2, m_r=2, m_t=2), spec)
        per_point = {"max_u1": 3 * len(power_db), "max_u2_exhaustive": 3 * len(power_db)}
        assert collections.Counter(gathers) == {**per_point, **{scheme: 3 for scheme in selection.ORDER_SCHEMES}}


def test_a_sweep_makes_no_parameter_set_per_point(monkeypatch):
    # Each point is the mean gains the grid holds for it, so a 601-point sweep makes
    # no SystemParams, whose making runs validate, once its SweepSpec is made.
    from fdnoma import config

    params, calls = default_params(), []
    spec = SweepSpec(power_db=tuple(i / 10.0 for i in range(601)), schemes=("max_u1_analytic",), trials=10, seed=1)
    validate = config.validate
    monkeypatch.setattr(config, "validate", lambda made: calls.append(made) or validate(made))
    assert len(run_sweep(params, spec)) == 601 and calls == []


# SHA-256 digests of (the gains each point reads, every scheme's choice, _simulate's outage
# counts) for seed 9, two blocks of 4,096 trials at 0 and 30 dB.
STREAM_DIGESTS = {
    "4x4x4": (
        "386da8e0c448c9aad9b7e56bb26aaf121a592bd0db9e4ee4bd62ed6c8f3fd8c9",
        "c84261131b451f4c4086d860fdd42e23f0b3d95be6031b2245fc88359e511b0d",
        "27c93637ee8f946d8a5dc5ded37ec510d7b718edb1f0d845e472239e98a57971",
    ),
    "3x5x2 k1=0": (
        "74ae5590ef87274b9c4d28a6dbec4046b03feee580f38d8db6a7f2fae43d7719",
        "b18a1b96fd9cb64bc94883d1b401087ab9af88ee58f6b8417a2b78525845e973",
        "f294e84d26f3f558d6ba7a07dad40c8bee0182fe619a304f6fd4c8361ab7c81a",
    ),
}


def stream_digests(label: str) -> tuple[str, str, str]:
    """The three digests of STREAM_DIGESTS, computed afresh for the parameter set `label`."""
    overrides = {"4x4x4": {}, "3x5x2 k1=0": {"m_b": 3, "m_r": 5, "m_t": 2, "k1": 0.0}}[label]
    params = make_params(**overrides)
    spec = SweepSpec(power_db=(0.0, 30.0), schemes=SCHEMES, trials=8192, seed=9)
    drawn = [draw_batch(params, (9, block), 4096) for block in range(2)]
    gains, choices = hashlib.sha256(), hashlib.sha256()
    for point in power_points_oracle(params, spec):
        for block, batch in enumerate(drawn):
            batch = batch.at(mean_gains(point))
            read = scaled(batch)
            for name in GROUPS:
                gains.update(np.ascontiguousarray(getattr(read, name), dtype=np.float64).tobytes())
            for scheme in SCHEMES:
                choice = select_batch(scheme, batch, point, montecarlo._rng(scheme, (9, block)))
                choices.update(np.stack(choice).astype(np.int64).tobytes())
    per_point = _simulate(power_points(params, spec), SCHEMES, 8192, (9,), block_size=4096)
    outages = [sums[-2:] for point in per_point for scheme in SCHEMES for sums in point[scheme]]
    return gains.hexdigest(), choices.hexdigest(), hashlib.sha256(repr(outages).encode()).hexdigest()


@pytest.mark.parametrize("label", list(STREAM_DIGESTS))
def test_the_streams_are_pinned(label):
    # A tripwire on the draws: the worker-count oracle shares whatever stream both of its sides
    # draw, so only pinned digests show that a change moved the draws.  The gains (draws times
    # means, float64, in GROUPS order), the choices and the outage counts take only comparisons,
    # products and quotients, none of the log1p of the rates, whose bits may depend on SIMD code.
    assert stream_digests(label) == STREAM_DIGESTS[label], (
        "the draws, choices or outage counts of a fixed seed changed; a stream change must be logged "
        "in CHANGES.md and README, with these digests updated"
    )


def avx512_targets() -> list[str]:
    """numpy's dispatch targets that use AVX-512 and that it finds on this CPU: none on a CPU without."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if (name.startswith("AVX512") or name == "X86_V4") and umath.__cpu_features__.get(name)]


def test_the_contract_holds_at_another_simd_level(tmp_path):
    # The part of the reproducibility contract meant for any CPU: the same seed gives the same draws,
    # choices and outage counts, and rates within rounding, while log1p, expm1, exp and log may change
    # bits between SIMD levels.  A child with numpy's AVX-512 code off (NPY_DISABLE_CPU_FEATURES, read by
    # that process alone) recomputes the pinned digests and runs a `--mode both` sweep: its outage counts
    # equal this process's, and every other value is within 1e-14 relative.  On a CPU without AVX-512
    # both sides run the same code.
    config, here, there = tmp_path / "default.cfg", tmp_path / "here.csv", tmp_path / "there.csv"
    config.write_text("m_b = 4\n")
    argv = ["sweep", "--config", str(config), "--mode", "both", "--schemes", "max_u1_analytic,max_u2_decoupled",
            "--power", "0:30:10", "--trials", "100000", "--seed", "1", "--output"]
    proc = run_fresh(
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_montecarlo\n"
        "from fdnoma.cli import main\n"
        "digests = {label: test_montecarlo.stream_digests(label) for label in test_montecarlo.STREAM_DIGESTS}\n"
        "code = main(json.loads(sys.argv[2]))\n"
        "print(json.dumps([test_montecarlo.avx512_targets(), digests, code]))\n",
        str(Path(__file__).parent),
        json.dumps([*argv, str(there)]),
        NPY_DISABLE_CPU_FEATURES=" ".join(avx512_targets()),
    )
    left_on, digests, code = json.loads(proc.stdout.splitlines()[-1])
    assert left_on == [] and code == 0
    assert {label: tuple(digest) for label, digest in digests.items()} == STREAM_DIGESTS
    assert cli.main([*argv, str(here)]) == 0
    rows = [list(csv.DictReader(path.open())) for path in (here, there)]
    assert len(rows[0]) == len(rows[1]) == 16
    for row, other in zip(*rows):
        for column in CSV_COLUMNS:
            counted = row["kind"] == results.MONTE_CARLO and column.startswith("outage")
            if column in ("power_db", "scheme", "trials", "kind") or counted:
                assert row[column] == other[column], (row, column)
            else:
                assert math.isclose(float(row[column]), float(other[column]), rel_tol=1e-14), (row, column)


def test_one_block_reduces_every_scheme_in_the_calling_thread(baseline, monkeypatch):
    # A run of at most one block runs in the calling thread, whatever the worker count: every
    # scheme's choice and sums, the joint searches' included, and it starts no thread.
    reduced_on, scheme_sums = [], montecarlo._scheme_sums

    def recording(*args):
        reduced_on.append(threading.get_ident())
        return scheme_sums(*args)

    def no_thread(thread):
        raise AssertionError("a one-block run started a thread")

    monkeypatch.setattr(montecarlo, "_scheme_sums", recording)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    per_block = _simulate(PowerGrid.at(baseline), SCHEMES, 1 << 12, (3,), block_size=1 << 12, workers=2)[0]
    assert reduced_on == [threading.get_ident()] * len(SCHEMES)
    assert all([sums[0] for sums in per_block[scheme]] == [1 << 12] for scheme in SCHEMES)


@pytest.mark.parametrize("call", ["estimate_rates", "estimate_metrics", "run_sweep"])
def test_no_block_buffer_outlives_its_call(baseline, monkeypatch, call):
    # Every buffer set made during the call, and every gain batch, SINR buffer set and
    # choice array in it, is freed by reference counting when it returns (the cyclic
    # collector is off).
    made = []
    buffer_set, empty_batch, sinr_buffers = montecarlo._buffer_set, montecarlo.empty_batch, montecarlo.SinrBuffers

    def tracked(make):
        def wrapper(*args):
            value = make(*args)
            for part in value if isinstance(value, tuple) else (value,):
                made.append(weakref.ref(part))
                arrays = vars(part).values() if hasattr(part, "__dict__") else ()
                made.extend(weakref.ref(a) for a in arrays if isinstance(a, np.ndarray))
            return value

        return wrapper

    monkeypatch.setattr(montecarlo, "_buffer_set", tracked(buffer_set))
    monkeypatch.setattr(montecarlo, "empty_batch", tracked(empty_batch))
    monkeypatch.setattr(montecarlo, "SinrBuffers", tracked(sinr_buffers))
    run = {
        "estimate_rates": lambda: estimate_rates(baseline, "max_u1", 70_001, 5),
        "estimate_metrics": lambda: estimate_metrics(baseline, SCHEMES, 1 << 12, 5),
        "run_sweep": lambda: run_sweep(baseline, SweepSpec(power_db=(0.0, 20.0), schemes=SCHEMES,
                                                           trials=1 << 12, seed=5)),
    }[call]
    gc.disable()
    try:
        run()
        alive = [ref() for ref in made if ref() is not None]
    finally:
        gc.enable()
    assert len(made) > 3
    assert not alive, [type(value).__name__ for value in alive]


class BlockFailure(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_failing_block_reaches_caller_and_leaves_no_threads(baseline, monkeypatch, workers):
    draw = montecarlo.draw_batch

    def fail_on_block_1(params, entropy, count, into=None):
        if entropy[-1] == 1:
            raise BlockFailure(f"block {entropy[-1]}")
        return draw(params, entropy, count, into)

    monkeypatch.setattr(montecarlo, "draw_batch", fail_on_block_1)
    threads = threading.active_count()
    with pytest.raises(BlockFailure, match="block 1"):
        _simulate(PowerGrid.at(baseline), ("max_u1", "random"), 5 << 14, (3,), block_size=1 << 14, workers=workers)
    assert threading.active_count() == threads


@pytest.mark.parametrize("where", ["every tile", "a later tile", "stage-wise scheme"])
def test_failure_in_a_single_block_reaches_caller_and_leaves_no_threads(baseline, monkeypatch, where):
    cross = selection.cross_sinr
    select = montecarlo.select_batch
    tiles = []

    def failing_cross_sinr(*args):
        # cross_sinr runs once per joint-search tile
        tiles.append(where)
        if where == "every tile" or where == "a later tile" and len(tiles) > 1:
            raise BlockFailure(where)
        return cross(*args)

    def failing_select(scheme, *args):
        if where == "stage-wise scheme" and scheme == "max_u1":
            raise BlockFailure(where)
        return select(scheme, *args)

    monkeypatch.setattr(selection, "cross_sinr", failing_cross_sinr)
    monkeypatch.setattr(montecarlo, "select_batch", failing_select)
    threads = threading.active_count()
    with pytest.raises(BlockFailure, match=where):
        _simulate(PowerGrid.at(baseline), SCHEMES, 1 << 14, (3,), block_size=1 << 14, workers=2)
    assert threading.active_count() == threads
    if where != "stage-wise scheme":  # the search stops at the tile that fails
        assert len(tiles) == (1 if where == "every tile" else 2)


@pytest.mark.parametrize("workers,block_count,most", [(1, 1, 0), (1, 3, 0), (2, 1, 0), (2, 3, 2)])
def test_joint_searches_start_no_nested_threads(baseline, monkeypatch, workers, block_count, most):
    # One worker, or one block, starts no thread; a multi-block run keeps its
    # tiles on the block threads.
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    block_size = 1 << 12
    trials = block_count * block_size
    per_block = _simulate(PowerGrid.at(baseline), SCHEMES, trials, (3,), block_size=block_size, workers=workers)[0]
    assert sum(sums[0] for sums in per_block["optimum_sumrate"]) == trials
    assert len(started) <= most


def test_single_block_runs_without_a_pool(baseline, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-block run started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    per_block = _simulate(PowerGrid.at(baseline), ("max_u1",), 1 << 14, (3,), block_size=1 << 14, workers=2)[0]
    assert [sums[0] for sums in per_block["max_u1"]] == [1 << 14]


class TestAnalyticRows:
    def test_values_and_kind(self, baseline):
        spec = SweepSpec(power_db=(20.0,), schemes=ANALYTIC_SCHEMES, trials=1, seed=1)
        rows, notes = analytic_sweep(baseline, spec)
        assert len(rows) == 2
        assert notes == []
        for row in rows:
            assert row.kind == "analytic"
            assert row.metrics.rate_u1.std_error == 0.0
        by_scheme = {row.scheme: row for row in rows}
        expected = analytic.rate_u1_max_u1(default_params(20.0))
        assert by_scheme["max_u1_analytic"].metrics.rate_u1.value == pytest.approx(expected)

    def test_unknown_scheme_rejected(self, baseline):
        with pytest.raises(ValueError):
            closed_form_sets(PowerGrid.at(baseline), "max_u1", ("rates",))

    def test_unknown_metric_is_config_error(self, baseline):
        with pytest.raises(ConfigError) as info:
            analytic_sweep(baseline, SweepSpec(power_db=(10.0,), schemes=ANALYTIC_SCHEMES, metrics=("outages",)))
        assert info.value.code == "SWEEP_METRIC_UNKNOWN"

    @pytest.mark.parametrize("metrics,code", [(("rate",), "SWEEP_METRIC_UNKNOWN"), ((), "SWEEP_EMPTY")])
    def test_closed_form_sets_check_the_metric_names_once(self, baseline, monkeypatch, metrics, code):
        # "rate" for "rates" once gave a MetricSet of NaNs.  The names are checked once per call,
        # before any law is built, not once per row.
        grid = power_points(baseline, SweepSpec(power_db=(0.0, 10.0, 20.0), schemes=ANALYTIC_SCHEMES))
        with pytest.raises(ConfigError) as info:
            closed_form_sets(grid, "max_u1_analytic", metrics)
        assert info.value.code == code
        checks = []
        checked = analytic.check_metrics
        monkeypatch.setattr(analytic, "check_metrics", lambda names: checks.append(checked(names)))
        assert len(list(closed_form_sets(grid, "max_u1_analytic", KNOWN_METRICS))) == 3 and len(checks) == 1

    def test_sweep_stacks_each_rule_once(self, baseline, monkeypatch):
        # Two schemes over 601 points: each scheme has its laws built once, from
        # the grid, for all four of its closed forms.
        stacked = []
        laws = analytic.Laws

        def counting(grid, scheme):
            stacked.append((len(grid.gains), scheme))
            return laws(grid, scheme)

        monkeypatch.setattr(analytic, "Laws", counting)
        spec = SweepSpec(power_db=tuple(i / 10.0 for i in range(601)), schemes=ANALYTIC_SCHEMES)
        rows, notes = analytic_sweep(baseline, spec)
        assert stacked == [(601, "max_u1_analytic"), (601, "max_u2_decoupled")]
        assert len(rows) == 1202 and notes == []

    def test_non_converged_point_gives_nan_row_and_note(self, baseline, monkeypatch):
        # Either rate's NonConvergedError blanks its row alone.
        for name in ("far_user_rates", "near_user_rates"):
            rates = getattr(analytic, name)

            def explode_at_second_point(laws, rates=rates):
                results = rates(laws)
                if laws.scheme == "max_u2_decoupled":
                    results[1] = analytic.NonConvergedError("forced for test")
                return results

            with monkeypatch.context() as patch:
                patch.setattr(analytic, name, explode_at_second_point)
                spec = SweepSpec(power_db=(10.0, 20.0, 30.0), schemes=ANALYTIC_SCHEMES, trials=1, seed=1)
                rows, notes = analytic_sweep(baseline, spec)
            assert [(row.power_db, row.scheme) for row in rows] == [
                (db, scheme) for db in (10.0, 20.0, 30.0) for scheme in ANALYTIC_SCHEMES
            ]
            assert notes == ["NON_CONVERGED at 20.0 dB / max_u2_decoupled: forced for test"], name
            broken = rows[3].metrics
            assert all(
                math.isnan(m.value) and m.std_error == 0.0 and m.trials == 0
                for m in broken._asdict().values()
            )
            assert all(not math.isnan(row.metrics.rate_u1.value) for i, row in enumerate(rows) if i != 3)
            assert all(not math.isnan(row.metrics.rate_u2.value) for i, row in enumerate(rows) if i != 3)


class TestCsv:
    def test_header_and_shape(self, baseline, tmp_path):
        spec = SweepSpec(power_db=(0.0, 10.0), schemes=("max_u1", "random"), trials=2_000, seed=3)
        rows = run_sweep(baseline, spec)
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines[1:])

    def test_byte_identical_for_identical_seed(self, baseline):
        spec = SweepSpec(power_db=(5.0,), schemes=("max_u1", "max_u2_decoupled"), trials=4_000, seed=12)
        first = rows_to_csv_text(run_sweep(baseline, spec))
        second = rows_to_csv_text(run_sweep(baseline, spec))
        assert first == second

    def test_full_precision_roundtrip(self, baseline):
        spec = SweepSpec(power_db=(20.0,), schemes=("max_u1",), trials=2_000, seed=3)
        rows = run_sweep(baseline, spec)
        text = rows_to_csv_text(rows)
        value_text = text.splitlines()[1].split(",")[2]
        assert float(value_text) == rows[0].metrics.rate_u1.value

    def test_writer_equals_the_csv_module_oracle(self, tmp_path):
        # Every float field takes each awkward value in turn (nan, infinities,
        # a negative zero, subnormals, the float range's edge), in rows of
        # every scheme and both kinds; the bytes must be csv.writer's.
        awkward = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3.0,
                   1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-7, 20.0]
        rows = []
        for i, (scheme, kind) in enumerate((s, k) for s in SCHEMES for k in (results.MONTE_CARLO, results.ANALYTIC)):
            for j in range(len(awkward)):
                values = [awkward[(i + j + n) % len(awkward)] for n in range(13)]
                estimates = [MetricEstimate(values[n], values[n + 6], 7) for n in range(6)]
                trials = (0, 1, 1_000_000, 2**63)[j % 4]
                rows.append(SweepRow(values[12], scheme, kind, trials, MetricSet(*estimates)))
        expected = io.StringIO()
        oracle_write_csv(rows, expected)
        assert rows_to_csv_text(rows) == expected.getvalue()
        path = tmp_path / "awkward.csv"
        write_csv(rows, path)
        assert path.read_bytes() == expected.getvalue().encode()


def test_scheme_validation(baseline):
    with pytest.raises(ValueError):
        estimate_rates(baseline, "beamforming", 100, seed=0)


@pytest.mark.parametrize("call,code", [
    (lambda p: estimate_metrics(p, ("max_u1", "bogus"), 100, 1), "SCHEME_UNKNOWN"),
    (lambda p: select_batch("bogus", draw_batch(p, (1,), 4), p), "SCHEME_UNKNOWN"),
    (lambda p: select_batch("random", draw_batch(p, (1,), 4), p), "SCHEME_NEEDS_RNG"),
    (lambda p: selection.joint_search(draw_batch(p, (1,), 4), p, dict.fromkeys(
        ("optimum_sumrate", "random"), tuple(np.empty((3, 4), dtype=np.intp)))), "SCHEME_NOT_JOINT"),
    (lambda p: analytic.Laws(PowerGrid.at(p), "max_u1"), "SCHEME_NO_CLOSED_FORM"),
    (lambda p: closed_form_sets(PowerGrid.at(p), "random", ("rates",)), "SCHEME_NO_CLOSED_FORM"),
])
def test_scheme_ids_raise_named_config_errors(baseline, monkeypatch, call, code):
    # A ConfigError is a ValueError, so callers that caught the plain ValueError still do.  The
    # simulator checks its schemes before it draws a block.
    drawn = []
    monkeypatch.setattr(montecarlo, "draw_batch", lambda *args, **kwargs: drawn.append(args))
    with pytest.raises(ConfigError) as info:
        call(baseline)
    assert info.value.code == code and drawn == []


def test_all_schemes_run(baseline):
    for scheme in SCHEMES:
        r1, r2, rs = estimate_rates(baseline, scheme, 2_000, seed=1)
        assert rs.value > 0.0


def _module_tree(module) -> ast.Module:
    with open(module.__file__) as handle:
        return ast.parse(handle.read())


def test_montecarlo_only_simulates():
    # The closed forms' dispatch lives in analytic, the rows and their CSV in
    # results; the simulator imports nothing from analytic.
    tree = _module_tree(montecarlo)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "analytic"}
    assert read == set()
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [node for node in imports if node.module == "analytic"]
    assert not [node for node in imports if any(alias.name == "analytic" for alias in node.names)]
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    moved = {"MetricEstimate", "MetricSet", "SweepRow", "write_csv", "jain_index", "analytic_sweep",
             "closed_form_sets", "analytic_metric_set"}
    assert not defined & moved


def test_only_config_checks_parameter_sets():
    # A SystemParams checks itself as it is made, and every PowerGrid is made in config, where
    # each point's powers are checked and its mean gains kept: no other module runs validate or
    # check_powers, works out a point's gains (gains_at), or makes a PowerGrid but through
    # PowerGrid.at or power_points.
    package = Path(montecarlo.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not names & {"validate", "check_powers", "gains_at"}, path.name
        made = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
                and "PowerGrid" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
        assert made == [], path.name


def test_only_config_holds_the_sweep_name_rules():
    # The scheme-id and metric-name rules exist once, in config: no other module names their
    # codes but in cli's table of codes that exit 1, and none tests a name against SCHEMES or
    # KNOWN_METRICS.
    codes, usage_codes = {"SCHEME_UNKNOWN", "SWEEP_METRIC_UNKNOWN"}, []
    package = Path(montecarlo.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        tables = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and path.name == "cli.py" and [ast.unparse(target) for target in node.targets] == ["_USAGE_CODES"]]
        usage_codes += [ast.literal_eval(table) for table in tables]
        in_table = {id(node) for table in tables for node in ast.walk(table)}
        named = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                 and isinstance(node.value, str) and node.value in codes and id(node) not in in_table]
        assert named == [], path.name
        membership = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                      and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                      and any(getattr(name, "id", getattr(name, "attr", None)) in ("SCHEMES", "KNOWN_METRICS")
                              for comparator in node.comparators for name in ast.walk(comparator))]
        assert membership == [], path.name
    assert usage_codes == [codes]


def test_only_montecarlo_starts_threads():
    # Blocks run one way, whole, on montecarlo's pool: no other module imports the thread
    # machinery, so none can run a block, a tile or a reduction on a thread of its own.
    package = Path(montecarlo.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "montecarlo.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
        assert not {name.split(".")[0] for name in imported} & {"threading", "_thread", "concurrent"}, path.name


def test_only_results_compares_simulation_with_closed_form():
    # The deviation of an estimate from its closed form and the family-wise bound exist once, in
    # results: no other module reads a tail as a normal deviate (NormalDist) or sums a binomial
    # tail (its log pmf needs lgamma), and validate's check and criterion 1 import both, and the
    # test of a comparison without power, from there and work out no standard error of their own.
    package = Path(montecarlo.__file__).parent
    for path in [*sorted(package.glob("*.py")), Path(__file__).parent / "test_acceptance.py"]:
        if path.name == "results.py":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names}
        assert not names & {"NormalDist", "lgamma"}, path.name
        if path.name in ("cli.py", "test_acceptance.py"):
            assert not names & {"std_error", "sqrt"}, path.name
            imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                        and node.module in ("results", "fdnoma.results") for alias in node.names}
            assert {"deviation", "family_bound", "without_power"} <= imported, path.name


def test_results_imports_no_fdnoma_module():
    from fdnoma import results

    for node in ast.walk(_module_tree(results)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("fdnoma"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("fdnoma") for alias in node.names), ast.unparse(node)



def test_result_records_are_immutable():
    # The rows, their metric sets and estimates and a quadrature's result are read by every layer
    # after they are made; none of their fields can be reassigned, and a changed copy is _replace's.
    estimate = MetricEstimate(0.5, 0.25, 7)
    metrics = MetricSet(*[estimate] * 6)
    records = (estimate, metrics, SweepRow(20.0, "random", results.MONTE_CARLO, 7, metrics),
               analytic.QuadratureResult(1.5, 1e-12, 21))
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    assert repr(estimate) == "MetricEstimate(value=0.5, std_error=0.25, trials=7)"
    assert estimate._replace(trials=8) == MetricEstimate(0.5, 0.25, 8) and estimate.trials == 7
