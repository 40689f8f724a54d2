import ast
import concurrent.futures
import functools
import gc
import io
import math
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnoma import analytic, montecarlo, results, selection
from fdnoma.channel import DEFAULT_BLOCK_SIZE, blocks, draw_batch
from fdnoma.config import KNOWN_METRICS, ConfigError, PowerGrid, SweepSpec, SystemParams, default_params
from fdnoma.analytic import ANALYTIC_SCHEMES, analytic_sweep, closed_form_sets
from fdnoma.montecarlo import (
    _metric_set,
    _simulate,
    chosen_sinrs,
    estimate_metrics,
    estimate_outage,
    estimate_rates,
    run_sweep,
)
from fdnoma.results import CSV_COLUMNS, MetricEstimate, MetricSet, SweepRow, jain_index, write_csv
from fdnoma.selection import SCHEMES, select_batch
from fdnoma.sinr import rate_bits

from conftest import make_params, oracle_write_csv, rows_to_csv_text, tile_rows


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
        a = _metric_set(_simulate(baseline, ("max_u1",), 30_000, (9,), block_size=1 << 14)["max_u1"], KNOWN_METRICS)
        b = _metric_set(_simulate(baseline, ("max_u1",), 30_000, (9,), block_size=1 << 14)["max_u1"], KNOWN_METRICS)
        assert a == b


class TestEstimateOutage:
    def test_infeasible_threshold(self):
        params = make_params(rate2=2.0)  # threshold hits a2/a1
        assert analytic.zeta(params) == math.inf
        for estimate in estimate_outage(params, "max_u1", 1000, seed=1):
            assert (estimate.value, estimate.std_error, estimate.trials) == (1.0, 0.0, 1000)

    def test_params_past_the_cap_are_validated(self):
        params = replace(SystemParams(), rate2=10.0, var_br=-1.0)
        with pytest.raises(ConfigError) as info:
            estimate_outage(params, "max_u1", 10, 1)
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
    from fdnoma.channel import draw_batch
    from fdnoma.selection import select_batch
    from fdnoma.sinr import cross_sinr, near_sinr

    theta1, theta2 = analytic.thresholds(baseline)
    z = analytic.zeta(baseline)
    n = 100_000
    batch = draw_batch(baseline, (2029, 0), n)
    ii, _, kk = select_batch("max_u1", batch, baseline)
    rows = np.arange(n)
    gsu, gru1 = batch.g_su1[rows, ii], batch.g_ru1[rows, kk]
    joint = (cross_sinr(gsu, gru1, baseline.a1, baseline.a2) > theta2) & (
        near_sinr(gsu, gru1, baseline.a1) > theta1
    )
    reduced = gsu / (gru1 + 1.0) > z
    np.testing.assert_array_equal(joint, reduced)


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


def sequential_simulate(params, schemes, trials, entropy_base, block_size, workspace=None):
    """Reference for _simulate: one block after another in the calling thread,
    each drawn fresh and each scheme selected on its own, each block's
    (trials, sums of r1, r2, r1^2, r2^2 and r1 r2, the two outage counts)
    appended in block order.  A sweep's workspace is not used."""
    theta1, theta2 = analytic.thresholds(params)
    per_block = {scheme: [] for scheme in schemes}
    for index, _, count in blocks(trials, block_size):
        batch = draw_batch(params, (*entropy_base, index), count)
        for scheme, sums in per_block.items():
            seed = np.random.SeedSequence((*entropy_base, index, montecarlo._RANDOM_SALT))
            choice = select_batch(scheme, batch, params, np.random.default_rng(seed))
            gamma_1, gamma_12, gamma_r, gamma_2, g_ru2 = chosen_sinrs(batch, *choice, params)
            r1, r2 = rate_bits(gamma_1), rate_bits(gamma_2)
            sums.append((
                count,
                *(float(np.sum(values)) for values in (r1, r2, r1 * r1, r2 * r2, r1 * r2)),
                int(np.count_nonzero(~((gamma_12 > theta2) & (gamma_1 > theta1)))),
                int(np.count_nonzero(~((gamma_r > theta2) & (g_ru2 > theta2)))),
            ))
    return per_block


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


@pytest.mark.parametrize("overrides", [{}, {"m_b": 3, "m_r": 5, "m_t": 2}])
def test_sweep_csv_is_byte_identical_for_any_worker_count(overrides, tmp_path, monkeypatch, fast_switching):
    # Six schemes at two points; 40,001 trials in blocks of 2**14 leave a
    # ragged last block of 7,233.  Blocks run on 1, 2 or 3 threads, switched
    # often, and each CSV must equal the one reduced block by block in the
    # calling thread.
    spec = SweepSpec(power_db=(0.0, 20.0), schemes=SCHEMES, trials=40_001, seed=17)
    written = csv_by_worker_count(make_params(**overrides), spec, tmp_path, monkeypatch, 1 << 14)
    for workers in (1, 2, 3):
        assert written[workers] == written["sequential"], workers


@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 5, 2), (8, 8, 8)], ids=["4x4x4", "3x5x2", "8x8x8"])
@pytest.mark.parametrize("where", ["one", "tile-1", "tile+1", "block", "short-last"])
def test_single_block_csv_is_byte_identical_for_any_worker_count(
    shape, where, tmp_path, monkeypatch, fast_switching
):
    # One block per point: with two or more workers a helper thread takes
    # joint-search tiles while the caller runs the stage-wise schemes, then
    # both share the rest of the tiles, and the helper reduces one joint
    # scheme while the caller reduces the other.  Two points reuse the
    # sweep's block workspace; 70,001 trials add a short last block.
    params = make_params(m_b=shape[0], m_r=shape[1], m_t=shape[2])
    tile = tile_rows(params)
    trials = {"one": 1, "tile-1": tile - 1, "tile+1": tile + 1, "block": DEFAULT_BLOCK_SIZE,
              "short-last": 70_001}[where]
    spec = SweepSpec(power_db=(0.0, 20.0), schemes=SCHEMES, trials=trials, seed=29)
    written = csv_by_worker_count(params, spec, tmp_path, monkeypatch, DEFAULT_BLOCK_SIZE)
    for workers in (1, 2, 3):
        assert written[workers] == written["sequential"], workers


def test_lone_block_reduces_the_joint_schemes_on_two_threads(baseline, monkeypatch):
    reduced_on = {}
    scheme_sums = montecarlo._scheme_sums

    def recording(batch, choice, *args):
        for scheme in SCHEMES:
            if choice is chosen.get(scheme):
                reduced_on[scheme] = threading.get_ident()
        return scheme_sums(batch, choice, *args)

    chosen = {}
    indices = selection.JointSearch.indices

    def keep(search, scheme):
        chosen[scheme] = indices(search, scheme)
        return chosen[scheme]

    monkeypatch.setattr(montecarlo, "_scheme_sums", recording)
    monkeypatch.setattr(selection.JointSearch, "indices", keep)
    _simulate(baseline, SCHEMES, 1 << 12, (3,), block_size=1 << 12, workers=2)
    assert set(reduced_on) == set(selection.JOINT_SCHEMES)
    assert reduced_on["max_u2_exhaustive"] == threading.main_thread().ident
    assert reduced_on["optimum_sumrate"] != threading.main_thread().ident


@pytest.mark.parametrize("call", ["estimate_rates", "estimate_metrics", "run_sweep"])
def test_no_block_buffer_outlives_its_call(baseline, monkeypatch, call):
    # Every workspace, gain batch and SINR buffer set made during the call is
    # freed by reference counting when it returns (the cyclic collector is off).
    made = []
    workspace, empty_batch, sinr_buffers = montecarlo._Workspace, montecarlo.empty_batch, montecarlo.SinrBuffers

    def tracked(make):
        def wrapper(*args):
            value = make(*args)
            made.append(weakref.ref(value))
            arrays = vars(value).values() if hasattr(value, "__dict__") else ()
            made.extend(weakref.ref(a) for a in arrays if isinstance(a, np.ndarray))
            return value

        return wrapper

    monkeypatch.setattr(montecarlo, "_Workspace", tracked(workspace))
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
        _simulate(baseline, ("max_u1", "random"), 5 << 14, (3,), block_size=1 << 14, workers=workers)
    assert threading.active_count() == threads


@pytest.mark.parametrize("where", ["every tile", "helper's tiles", "stage-wise scheme"])
def test_failure_in_a_single_block_reaches_caller_and_leaves_no_threads(baseline, monkeypatch, where):
    cross = selection.cross_sinr
    select = montecarlo.select_batch
    helper_failed = threading.Event()

    def failing_cross_sinr(*args):
        # cross_sinr runs once per joint-search tile
        if where == "every tile" or threading.current_thread() is not threading.main_thread():
            helper_failed.set()
            raise BlockFailure(where)
        return cross(*args)

    def failing_select(scheme, *args):
        if where == "stage-wise scheme" and scheme == "max_u1":
            raise BlockFailure(where)
        if where == "helper's tiles":
            assert helper_failed.wait(10), "the helper took no tile"
        return select(scheme, *args)

    monkeypatch.setattr(selection, "cross_sinr", failing_cross_sinr)
    monkeypatch.setattr(montecarlo, "select_batch", failing_select)
    threads = threading.active_count()
    with pytest.raises(BlockFailure, match=where):
        _simulate(baseline, SCHEMES, 1 << 14, (3,), block_size=1 << 14, workers=2)
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers,block_count,most", [(1, 1, 0), (1, 3, 0), (2, 1, 1), (2, 3, 2)])
def test_joint_searches_start_no_nested_threads(baseline, monkeypatch, workers, block_count, most):
    # One worker starts no thread; a lone block starts one tile helper; a
    # multi-block run keeps its tiles on the block threads.
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    block_size = 1 << 12
    trials = block_count * block_size
    per_block = _simulate(baseline, SCHEMES, trials, (3,), block_size=block_size, workers=workers)
    assert sum(sums[0] for sums in per_block["optimum_sumrate"]) == trials
    assert len(started) <= most
    if block_count == 1:
        assert len(started) == most


def test_single_block_runs_without_a_pool(baseline, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-block run started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    per_block = _simulate(baseline, ("max_u1",), 1 << 14, (3,), block_size=1 << 14, workers=2)
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

    def test_sweep_stacks_each_rule_once(self, baseline, monkeypatch):
        # Two schemes over 601 points: each scheme's rule has its laws built once, from
        # the grid, for all four of its closed forms.
        stacked = []
        laws = analytic.Laws

        def counting(grid, rule):
            stacked.append((len(grid), rule))
            return laws(grid, rule)

        monkeypatch.setattr(analytic, "Laws", counting)
        spec = SweepSpec(power_db=tuple(i / 10.0 for i in range(601)), schemes=ANALYTIC_SCHEMES)
        rows, notes = analytic_sweep(baseline, spec)
        assert stacked == [(601, "max_u1"), (601, "max_u2")]
        assert len(rows) == 1202 and notes == []

    def test_non_converged_point_gives_nan_row_and_note(self, baseline, monkeypatch):
        # Either rate's NonConvergedError blanks its row alone.
        for name in ("far_user_rates", "near_user_rates"):
            rates = getattr(analytic, name)

            def explode_at_second_point(laws, rates=rates):
                results = rates(laws)
                if laws.rule == "max_u2":
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
                for m in vars(broken).values()
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


def test_all_schemes_run(baseline):
    for scheme in SCHEMES:
        r1, r2, rs = estimate_rates(baseline, scheme, 2_000, seed=1)
        assert rs.value > 0.0


def _module_tree(module) -> ast.Module:
    with open(module.__file__) as handle:
        return ast.parse(handle.read())


def test_montecarlo_only_simulates():
    # The closed forms' dispatch lives in analytic, the rows and their CSV in
    # results; the simulator reads of analytic only its outage thresholds.
    tree = _module_tree(montecarlo)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "analytic"}
    assert read == {"thresholds"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "analytic"]
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    moved = {"MetricEstimate", "MetricSet", "SweepRow", "write_csv", "jain_index", "analytic_sweep",
             "closed_form_sets", "analytic_metric_set"}
    assert not defined & moved


def test_results_imports_no_fdnoma_module():
    from fdnoma import results

    for node in ast.walk(_module_tree(results)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("fdnoma"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("fdnoma") for alias in node.names), ast.unparse(node)

