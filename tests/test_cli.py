import ast
import csv
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdnoma import analytic, cli, montecarlo, results
from fdnoma.channel import DEFAULT_BLOCK_SIZE
from fdnoma.config import PowerGrid, default_params, thresholds
from fdnoma.results import MetricEstimate
from fdnoma.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _check_mc_vs_analytic,
    cmd_validate,
    main,
    parse_power_grid,
)

from conftest import fresh_env, make_params, run_fresh

GOOD_CONFIG = """\
m_b = 4
m_r = 4
m_t = 4
a1 = 0.25
a2 = 0.75
rho_s = 20
rho_r = 20
var_si = 0.3
k1 = 0.01
rate1 = 0.5
rate2 = 0.5
"""


# alpha = 1 exactly in the near-user rate kernels (rate_u1_max_u2, and the
# p = 3 term of rate_u1_max_u1) at every power, with beta = 1e6 at 0 dB.
SINGULAR_CONFIG = (
    GOOD_CONFIG.replace("rho_s = 20", "rho_s = 0").replace("rho_r = 20", "rho_r = 0").replace("k1 = 0.01", "k1 = 1e-6")
    + "var_bu1 = 4e-6\n"
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestPowerGrid:
    def test_inclusive_range(self):
        assert parse_power_grid("0:50:5") == tuple(float(x) for x in range(0, 55, 5))
        assert len(parse_power_grid("0:50:5")) == 11

    def test_single_point_range(self):
        assert parse_power_grid("10:10:5") == (10.0,)

    def test_comma_list(self):
        assert parse_power_grid("0,7.5,30") == (0.0, 7.5, 30.0)

    @pytest.mark.parametrize(
        "bad",
        ["0:50", "a:b:c", "0:50:-5", "50:0:5", "x,y", "0:nan:1", "0:inf:1", "nan:10:5", "0:10:nan",
         "10,nan", "10,inf", "-inf,10", "1e400"],
    )
    def test_bad_grids_are_usage_errors(self, bad, config_path, tmp_path, capsys):
        code = main(
            ["sweep", "--config", config_path, "--power", bad, "--output", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0:10:1e-320", "0:1e7:1"])
    def test_grid_with_too_many_points_is_usage_error(self, grid, config_path, tmp_path, capsys):
        # (stop - start) / step overflows to inf for the first two.
        code = main(
            ["sweep", "--config", config_path, "--power", grid, "--output", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "points" in err
        assert "Traceback" not in err


class TestSweep:
    def test_analytic_grid_row_count(self, config_path, tmp_path):
        out = tmp_path / "analytic.csv"
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--mode",
                "analytic",
                "--schemes",
                "max_u1_analytic",
                "--power",
                "0:50:5",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 11
        assert all(row["kind"] == "analytic" for row in rows)
        assert all(row["scheme"] == "max_u1_analytic" for row in rows)

    def test_mc_sweep_and_determinism(self, config_path, tmp_path):
        args = [
            "sweep",
            "--config",
            config_path,
            "--mode",
            "mc",
            "--schemes",
            "max_u1,random",
            "--power",
            "0:10:10",
            "--trials",
            "2000",
            "--seed",
            "7",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out_a)]) == EXIT_OK
        assert main(args + ["--output", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        with open(out_a, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4  # 2 points x 2 schemes
        assert {row["scheme"] for row in rows} == {"max_u1", "random"}

    def test_both_mode_pairs_rows_and_reports_deviations(self, config_path, tmp_path, capsys):
        out = tmp_path / "both.csv"
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--mode",
                "both",
                "--schemes",
                "max_u2_decoupled",
                "--power",
                "20:20:5",
                "--trials",
                "100000",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr().out.splitlines()
        assert captured[-2] == "deviation |mc - analytic| in se, * past 3.66 (family-wise level 0.001, 4 comparisons):"
        assert captured[-1].split()[:3] == ["20", "max_u2_decoupled", "dev_se"]
        assert "*" not in captured[-1]
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["kind"] for row in rows] == ["monte_carlo", "analytic"]
        for column in ("rate_u1", "rate_u2"):
            mc, an = (float(row[column]) for row in rows)
            assert abs(mc - an) / an < 0.01, column

    def test_both_mode_summary_marks_deviations_and_names_outages_without_power(self, capsys):
        # 0 events in 1e5 trials against a closed form of 2.3e-7 (mu 0.023) pass at any closed form,
        # so the summary names the comparison; 0 events against 1e-3 (mu 100) and a rate 10 se off are
        # past family_bound(4) = 3.66 se and marked.
        def metrics(rate_u2, outage_u1, outage_u2, trials):
            rate, out = MetricEstimate(0.5, 0.01, trials), MetricEstimate(outage_u1, 0.0, trials)
            return results.MetricSet(rate, rate._replace(value=rate_u2), rate, out,
                                     out._replace(value=outage_u2), rate)

        rows = [
            results.SweepRow(20.0, "max_u1_analytic", "monte_carlo", 100_000, metrics(0.6, 0.0, 0.0, 100_000)),
            results.SweepRow(20.0, "max_u1_analytic", "analytic", 0, metrics(0.5, 2.3e-7, 1e-3, 0)),
        ]
        cli._print_summary(rows, "both")
        *_, header, line, named = capsys.readouterr().out.splitlines()
        assert header == "deviation |mc - analytic| in se, * past 3.66 (family-wise level 0.001, 4 comparisons):"
        tokens = dict(token.split("=", 1) for token in line.split()[3:])
        assert tokens["rate_u1"] == "0.00" and tokens["outage_u1"] == "0.00"
        assert tokens["rate_u2"] == "10.00*" and tokens["outage_u2"].endswith("*")
        assert named == "no power, as 0 events pass: 20 dB max_u1_analytic/outage_u1 (mu 0.023)"

    def test_both_mode_summary_judges_nothing(self, config_path, tmp_path, capsys, monkeypatch):
        # A closed form planted 10% high is marked in the summary; the exit code and the CSV are
        # those of a sweep that marks nothing.
        argv = ["sweep", "--config", config_path, "--mode", "both", "--schemes", "max_u2_decoupled",
                "--power", "20", "--trials", "200000", "--seed", "1"]
        assert main([*argv, "--output", str(tmp_path / "right.csv")]) == EXIT_OK
        assert "*" not in capsys.readouterr().out.splitlines()[-1]
        outages = analytic.outages

        def planted(laws):
            near, far = outages(laws)
            return [1.1 * p for p in near], far

        monkeypatch.setattr(analytic, "outages", planted)
        assert main([*argv, "--output", str(tmp_path / "planted.csv")]) == EXIT_OK
        tokens = dict(token.split("=", 1) for token in capsys.readouterr().out.splitlines()[-1].split()[3:])
        assert tokens["outage_u1"].endswith("*") and not tokens["outage_u2"].endswith("*")
        right, wrong = ((tmp_path / f"{name}.csv").read_text().splitlines() for name in ("right", "planted"))
        assert right[:2] == wrong[:2]  # the header and the simulated row

    @pytest.mark.parametrize(
        "antennas, power", [(14, "40,50"), (16, "0:60:10"), (24, "0:60:10"), (32, "0:60:10"), (64, "0:60:10")]
    )
    def test_analytic_sweep_at_large_arrays(self, antennas, power, tmp_path, capsys):
        # Summed as alternating binomial sums, the laws made these sweeps exit
        # 1 with CDF_RANGE_VIOLATION: 14 antennas at 40 and 50 dB, and every
        # point tried from 16 antennas on.
        path = tmp_path / "large.cfg"
        path.write_text(f"m_b = {antennas}\nm_r = {antennas}\nm_t = {antennas}\n")
        out = tmp_path / "large.csv"
        code = main(["sweep", "--config", str(path), "--mode", "analytic", "--power", power, "--output", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * len(parse_power_grid(power))
        for row in rows:
            assert 0.0 <= float(row["outage_u1"]) <= 1.0 and 0.0 <= float(row["outage_u2"]) <= 1.0, row
            assert 0.0 <= float(row["rate_u2"]) < math.log2(1.0 + 0.75 / 0.25), row

    def test_metrics_restriction(self, config_path, tmp_path):
        out = tmp_path / "rates_only.csv"
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--metrics",
                "rates",
                "--power",
                "10:10:1",
                "--schemes",
                "max_u1",
                "--trials",
                "1000",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        with open(out, newline="") as handle:
            row = next(csv.DictReader(handle))
        assert row["outage_u1"] == "nan"
        assert float(row["rate_u1"]) > 0

    def test_missing_config(self, tmp_path):
        code = main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG

    def test_invalid_config(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("a1 = 0.5\na2 = 0.5\n")
        code = main(["sweep", "--config", str(path), "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG

    def test_repeated_scheme_is_config_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(
            ["sweep", "--config", config_path, "--schemes", "max_u1,max_u1", "--power", "10",
             "--trials", "200", "--seed", "3", "--output", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "SWEEP_SCHEME_DUPLICATE" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["mc", "both"])
    def test_repeated_power_point_is_config_error(self, config_path, tmp_path, capsys, mode):
        # Two rows per (power_db, scheme, kind) key, and a summary that kept one.
        out = tmp_path / "o.csv"
        code = main(
            ["sweep", "--config", config_path, "--mode", mode, "--schemes", "max_u1_analytic",
             "--power", "10,10", "--trials", "200", "--seed", "3", "--output", str(out)]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "SWEEP_POWER_DUPLICATE" in err and "10.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("relay", ["nan", "inf", "1e400"])
    def test_non_finite_relay_power_is_usage_error(self, relay, config_path, tmp_path, capsys):
        # 1e400 overflows to inf when parsed.
        out = tmp_path / "o.csv"
        code = main(
            ["sweep", "--config", config_path, "--relay-power-db", relay, "--power", "10",
             "--trials", "200", "--output", str(out)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "relay power" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
    @pytest.mark.parametrize("flags", [["--power", "0,3100"], ["--power", "0,10", "--relay-power-db", "3100"]])
    def test_power_beyond_the_float_range_is_config_error(self, mode, flags, config_path, tmp_path, capsys):
        # 10 ** (3100 / 10) overflows a float: a named error, as at 1001 dB, not a traceback.
        out = tmp_path / "o.csv"
        code = main(["sweep", "--config", config_path, "--mode", mode, "--schemes", "max_u1_analytic",
                     "--trials", "200", "--output", str(out), *flags])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: GAIN_OUT_OF_RANGE") and "3100.0 dB" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["mc", "both"])
    def test_bad_later_point_stops_the_sweep_before_any_draw(self, mode, config_path, tmp_path, capsys, monkeypatch):
        # The whole grid is validated before any evaluator runs: nothing is simulated for
        # the good points ahead of the 1001 dB one.
        draws = []
        monkeypatch.setattr(montecarlo, "draw_batch", lambda *args, **kwargs: draws.append(args))
        out = tmp_path / "o.csv"
        code = main(["sweep", "--config", config_path, "--mode", mode, "--schemes", "max_u1_analytic",
                     "--power", "0,10,20,1001", "--trials", "300000", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "GAIN_OUT_OF_RANGE: mean gain lam_br" in capsys.readouterr().err
        assert draws == [] and not out.exists()

    @pytest.mark.parametrize("mode, antennas", [("analytic", 1030), ("analytic", 1100), ("both", 1100)])
    def test_sweep_past_the_kernel_sum(self, mode, antennas, tmp_path, capsys):
        # At 1030 antennas the near-user kernel sum exited 0 with rate_u1 = -8.35e291 and jain = nan;
        # from 1031 on its binomial coefficients overflow a float, which exited 2.  Both are integrated.
        config = tmp_path / "big.cfg"
        config.write_text(f"m_b = {antennas}\nm_r = 2\nm_t = 2\n")
        out = tmp_path / "o.csv"
        code = main(["sweep", "--config", str(config), "--mode", mode, "--power", "20", "--trials", "200",
                     "--output", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == (2 if mode == "analytic" else 4)
        for row in rows:
            assert math.isfinite(float(row["rate_u1"])) and math.isfinite(float(row["jain"])), row

    @pytest.mark.parametrize("mode", ["mc", "analytic"])
    def test_negative_seed_is_config_error(self, config_path, tmp_path, capsys, mode):
        out = tmp_path / "o.csv"
        code = main(
            ["sweep", "--config", config_path, "--mode", mode, "--power", "10",
             "--trials", "200", "--seed", "-1", "--output", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "SEED_INVALID" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, code, prefix", [
        pytest.param(["--mode", "mc", "--schemes", "psychic"], EXIT_USAGE, "usage error: SCHEME_UNKNOWN: ",
                     id="unknown_scheme_mc"),
        pytest.param(["--mode", "analytic", "--schemes", "psychic"], EXIT_USAGE, "usage error: SCHEME_UNKNOWN: ",
                     id="unknown_scheme_analytic"),
        pytest.param(["--mode", "both", "--schemes", "max_u1,psychic"], EXIT_USAGE, "usage error: SCHEME_UNKNOWN: ",
                     id="unknown_scheme_both"),
        pytest.param(["--metrics", "rates,latency"], EXIT_USAGE, "usage error: SWEEP_METRIC_UNKNOWN: ",
                     id="unknown_metric"),
        pytest.param(["--mode", "analytic", "--schemes", "optimum_sumrate"], EXIT_USAGE,
                     "usage error: no closed forms for optimum_sumrate; ", id="no_closed_form_analytic"),
        pytest.param(["--schemes", ","], EXIT_CONFIG, "config error: SWEEP_EMPTY: scheme", id="empty_schemes"),
        pytest.param(["--metrics", ","], EXIT_CONFIG, "config error: SWEEP_EMPTY: metric", id="empty_metrics"),
    ])
    def test_flag_fault_writes_nothing(self, flags, code, prefix, config_path, tmp_path, capsys, monkeypatch):
        # The request is checked whole as it is made: a bad flag stops the sweep before any
        # block is drawn or any closed form's laws are built, and no CSV is written.
        work = []
        monkeypatch.setattr(montecarlo, "draw_batch", lambda *args, **kwargs: work.append("draw"))
        monkeypatch.setattr(analytic, "Laws", lambda *args, **kwargs: work.append("laws"))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", config_path, "--power", "10", "--trials", "200",
                     "--output", str(out), *flags]) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert work == [] and not out.exists()

    def test_non_converged_analytic_row_reported_and_run_continues(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        from fdnoma import analytic

        far_user_rates = analytic.far_user_rates

        def explode(laws):
            if laws.scheme == "max_u2_decoupled":
                return [analytic.NonConvergedError("forced for test") for _ in laws.grid.gains]
            return far_user_rates(laws)

        monkeypatch.setattr(analytic, "far_user_rates", explode)
        out = tmp_path / "partial.csv"
        code = main(
            [
                "sweep",
                "--config",
                config_path,
                "--mode",
                "analytic",
                "--power",
                "10,20",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert "NON_CONVERGED" in capsys.readouterr().out
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4  # the failing scheme still gets a (nan) row per point
        broken = [row for row in rows if row["scheme"] == "max_u2_decoupled"]
        assert all(row["rate_u2"] == "nan" for row in broken)
        intact = [row for row in rows if row["scheme"] == "max_u1_analytic"]
        assert all(float(row["rate_u2"]) > 0 for row in intact)


class TestValidate:
    def test_all_pass(self, config_path, capsys):
        code = main(["validate", "--config", config_path, "--trials", "60000", "--seed", "3"])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAIL" not in captured
        assert captured.count("PASS") >= 5

    def test_non_converged_far_user_rate_fails_the_simulation_check(self, config_path, capsys, monkeypatch):
        far_user_rates = analytic.far_user_rates

        def explode(laws):
            if laws.scheme == "max_u2_decoupled":
                return [analytic.NonConvergedError("forced for test") for _ in laws.grid.gains]
            return far_user_rates(laws)

        monkeypatch.setattr(analytic, "far_user_rates", explode)
        code = main(["validate", "--config", config_path, "--trials", "20000"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_VALIDATION
        assert [line.split()[1] for line in lines[1:]] == ["PASS"] * 4 + ["FAIL"]
        assert lines[-1].split(None, 2)[2] == "max_u2_decoupled: forced for test"

    @pytest.mark.parametrize(
        "extra", ["", "var_bu1 = 1e-6", "var_bu1 = 1e-12", "var_bu1 = 1e-30", "var_br = 1e-6"]
    )
    def test_default_and_narrow_configs_pass_every_check(self, extra, tmp_path, capsys):
        # Unsplit, the near-user quadrature read 0 +- 0 from var_bu1 = 1e-6 down
        # and the relative gap divided by it; the far-user rate read 0 at var_br = 1e-6.
        path = tmp_path / "narrow.cfg"
        path.write_text(f"m_b = 4\nm_r = 4\nm_t = 4\n{extra}\n")
        code = main(["validate", "--config", str(path), "--trials", "20000"])
        verdicts = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert code == EXIT_OK
        assert verdicts == ["PASS"] * len(cli.DEFAULT_CHECKS)

    def test_injected_failure(self, config_path, capsys):
        class Args:
            config = config_path
            trials = cli.MIN_TRIALS
            seed = 0

        checks = (("always_wrong", lambda params, trials, seed: (False, "injected")),)
        assert cmd_validate(Args(), checks=checks) == EXIT_VALIDATION
        assert "FAIL" in capsys.readouterr().out

    def test_missing_config(self, tmp_path):
        code = main(["validate", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags,code",
        [(["--trials", "0"], "TRIALS_INVALID"), (["--trials", "-5"], "TRIALS_INVALID"),
         (["--seed", "-1"], "SEED_INVALID"), (["--trials", "1"], "TRIALS_TOO_FEW"),
         (["--trials", "10", "--seed", "1"], "TRIALS_TOO_FEW"),
         (["--trials", str(cli.MIN_TRIALS - 1)], "TRIALS_TOO_FEW")],
    )
    def test_bad_trials_or_seed_is_config_error(self, config_path, capsys, flags, code):
        # Rejected before any check runs, so no check line is printed.  Below MIN_TRIALS the rates'
        # sample se are too rough for the stated level: at 1 trial each is 0 and any gap failed, at
        # 10 trials seed 1 read 4.57 se.
        assert main(["validate", "--config", config_path, *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert code in captured.err
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_fewest_trials_pass(self, config_path, capsys, seed):
        code = main(["validate", "--config", config_path, "--trials", str(cli.MIN_TRIALS), "--seed", str(seed)])
        assert code == EXIT_OK, capsys.readouterr().out

    def test_simulation_check_draws_each_block_once(self, monkeypatch):
        # Both closed-form schemes share every block: 3 blocks, 3 draws, not 6.
        # Blocks run on worker threads, so the draws may come in any order.
        draws = []
        draw_batch = montecarlo.draw_batch

        def counting(params, entropy, count, into=None):
            draws.append(entropy)
            return draw_batch(params, entropy, count, into)

        monkeypatch.setattr(montecarlo, "draw_batch", counting)
        ok, detail = _check_mc_vs_analytic(default_params(20.0), 2 * DEFAULT_BLOCK_SIZE + 1, 1)
        assert ok, detail
        assert sorted(draws) == [(1, 0), (1, 1), (1, 2)]

    def test_cdf_sanity_builds_each_far_law_once(self, monkeypatch):
        # Each scheme's laws are built once and give both its near- and far-user law, and the
        # quadrature, outage and simulation checks read the same cached laws of the one set.
        built = []
        laws = analytic.Laws

        def counting(grid, scheme):
            built.append(scheme)
            return laws(grid, scheme)

        monkeypatch.setattr(analytic, "Laws", counting)
        analytic._one_set.cache_clear()
        params = default_params(20.0)
        checks = (cli._check_cdf_sanity, cli._check_closed_form_vs_quadrature, cli._check_outage_identity,
                  cli._check_mc_vs_analytic)
        for check in checks:
            assert check(params, 20_000, 1)[0]
        assert built == list(analytic.ANALYTIC_SCHEMES)

    @pytest.mark.parametrize("var_bu1", [1e-4, 1.0, 1e4])
    def test_cdf_sanity_sees_each_near_law_rise(self, monkeypatch, var_bu1):
        # Each near law is sampled over 60 of its own link's scales, a1 lam_su1.  Over 60 a1 rho_s,
        # which ignores var_bu1, no sampled point lay strictly inside (0, 1) at var_bu1 = 1e-4 or
        # 1e4, so a law that falls about its median passed.
        params = replace(default_params(20.0), var_bu1=var_bu1)
        near_cdf, seen = analytic.Laws.near_cdf, []

        def recorded(laws, x):
            seen.append(near_cdf(laws, x))
            return seen[-1]

        def planted(laws, x):
            values = near_cdf(laws, x)
            return np.where((0.3 < values) & (values < 0.7), 1.0 - values, values)

        monkeypatch.setattr(analytic.Laws, "near_cdf", recorded)
        assert cli._check_cdf_sanity(params, 0, 1)[0]
        assert len(seen) == 2 and all(np.count_nonzero((1e-6 < v) & (v < 1.0 - 1e-6)) >= 10 for v in seen)
        monkeypatch.setattr(analytic.Laws, "near_cdf", planted)
        assert cli._check_cdf_sanity(params, 0, 1) == (False, "max_u1_analytic near-user F not nondecreasing")

    def test_large_arrays_pass_every_check(self, tmp_path, capsys):
        # The alternating sums read CDF_RANGE_VIOLATION here.
        path = tmp_path / "large.cfg"
        path.write_text("m_b = 16\nm_r = 16\nm_t = 16\n")
        code = main(["validate", "--config", str(path), "--trials", "20000"])
        verdicts = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert code == EXIT_OK
        assert verdicts == ["PASS"] * len(cli.DEFAULT_CHECKS)

    def test_quadrature_check_names_an_integrated_rate(self):
        # At 1100 antennas the near-user rate under max_u1 is the quadrature itself, so there is no
        # gap to report for it; max_u2's one-term sum is still compared.
        ok, detail = cli._check_closed_form_vs_quadrature(replace(default_params(20.0), m_b=1100, m_r=2, m_t=2), 0, 1)
        assert ok, detail
        assert detail.startswith("max gap ")
        assert detail.endswith(
            "; rate_u1 of max_u1_analytic integrated: its kernel sum's error bound misses the tolerance")

    @pytest.mark.parametrize("events,verdict", [(3, True), (40, False)])
    def test_simulation_check_verdict_on_outage_count(self, monkeypatch, events, verdict):
        # Exact rates and outage_u2; max_u1_analytic's near-user outage is
        # `events` in 1e6 trials against 2.30e-7.
        def measured(params, schemes, trials, seed):
            return {scheme: measured_one(params, scheme, trials) for scheme in schemes}

        def measured_one(params, scheme, trials):
            (exact,) = analytic.closed_form_sets(PowerGrid.at(params), scheme, ("rates", "outage"))
            near = events if scheme == "max_u1_analytic" else round(exact.outage_u1.value * trials)
            return exact._replace(outage_u1=MetricEstimate(near / trials, 0.0, trials),
                                  outage_u2=MetricEstimate(round(exact.outage_u2.value * trials) / trials, 0.0, trials))

        monkeypatch.setattr(cli, "estimate_metrics", measured)
        ok, detail = _check_mc_vs_analytic(default_params(20.0), 10**6, 1)
        assert ok is verdict, detail

    @pytest.mark.parametrize("scheme,factor,ok", [("max_u2_decoupled", 1.1, False), ("max_u1_analytic", 10.0, True)])
    def test_simulation_check_on_a_planted_near_user_outage(self, monkeypatch, scheme, factor, ok):
        # At 20 dB and 2e5 trials, max_u2_decoupled's p = 0.032 planted x1.1 is about 8 se off, so
        # the check fails on it; max_u1_analytic's p = 2.3e-7 expects 0.05 events, so even x10 passes
        # at zero events and the check names it as without power.
        outages = analytic.outages

        def planted(laws):
            near, far = outages(laws)
            return ([factor * p for p in near] if laws.scheme == scheme else near), far

        monkeypatch.setattr(analytic, "outages", planted)
        passed, detail = _check_mc_vs_analytic(default_params(20.0), 200_000, 1)
        assert passed is ok, detail
        if ok:
            assert detail.endswith(f"no power, as 0 events pass: {scheme}/outage_u1 (mu 0.46)"), detail
        else:
            assert detail.startswith(f"{scheme}/outage_u1: "), detail

    # The own-signal threshold decides at the defaults, the far-user symbol's at rate2 = 1.5; at
    # rate2 = 2 the far-user threshold is the a2/a1 cap.
    @pytest.mark.parametrize("overrides", [
        {"rate2": 1.5}, {"m_b": 16, "m_r": 16, "m_t": 16, "rho_s": 1e5, "rho_r": 1e5},
        {"m_b": 1, "k1": 0.0, "rho_s": 0.1, "rho_r": 0.1}, {"rate2": 2.0},
    ])
    def test_outage_identity_holds_on_either_threshold(self, overrides):
        ok, detail = cli._check_outage_identity(make_params(**overrides), 0, 1)
        assert ok, detail
        assert detail.startswith("threshold infeasible" if overrides == {"rate2": 2.0} else "near-user outage")

    def test_outage_identity_fails_on_a_wrong_threshold(self, monkeypatch):
        # zeta = theta2 / a2 drops the near user's own symbol from the cross-decoding SINR.
        monkeypatch.setattr(analytic, "zeta", lambda params: thresholds(params)[1] / params.a2)
        ok, detail = cli._check_outage_identity(default_params(20.0), 0, 1)
        assert not ok
        assert detail.startswith("max_u1_analytic: near-user outage "), detail
        # A finite threshold where the far-user one is infeasible leaves the outage below 1.
        monkeypatch.setattr(analytic, "zeta", lambda params: thresholds(params)[0] / params.a1)
        ok, detail = cli._check_outage_identity(make_params(rate2=2.0), 0, 1)
        assert not ok
        assert detail.startswith("max_u1_analytic: near-user outage "), detail


def test_closed_form_schemes_are_one_table():
    # analytic._LINKS is the one table of schemes with closed forms: --mode analytic's default
    # schemes and the benchmark's closed-form workloads name the same ones, in its order.
    args = cli._build_parser().parse_args(["sweep", "--config", "unused.cfg", "--mode", "analytic"])
    workloads = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text())
    (benchmark,) = [ast.literal_eval(node.value) for node in workloads.body if isinstance(node, ast.Assign)
                    and [ast.unparse(target) for target in node.targets] == ["CLOSED_FORM_SCHEMES"]]
    assert analytic.ANALYTIC_SCHEMES == tuple(analytic._LINKS)
    assert cli._select_schemes(args) == analytic.ANALYTIC_SCHEMES
    assert benchmark == analytic.ANALYTIC_SCHEMES


def test_usage_error_without_subcommand():
    assert main([]) == EXIT_USAGE


# A weak BS link and strong relay-side interference, every mean gain inside GAIN_RANGE: both rates
# are near 1e-178 (closed form 4.6e-177 and 4.8e-200), their squares underflow to 0, and Jain's index
# divided by their sum.  The powers are in dB, as load_config reads them.
TINY_RATES_CONFIG = """\
m_b = 8
m_r = 2
m_t = 4
a1 = 0.09241154036188992
a2 = 0.9075884596381101
rho_s = -447.6862887818706
rho_r = 436.5939853558936
var_br = 4.3539805987420777e+21
var_bu1 = 3.6838344866813627e-44
var_ru1 = 1.2358565001108538e+28
var_ru2 = 2.0063811497160485e+32
var_si = 4.806523993457033e+46
k1 = 7.268905351420041e+18
rate1 = 1.5149330320187866
rate2 = 0.9869150160179788
"""


def test_rates_whose_squares_underflow_run_every_command(tmp_path, capsys):
    config, out = tmp_path / "tiny.cfg", tmp_path / "out.csv"
    config.write_text(TINY_RATES_CONFIG)
    assert main(["validate", "--config", str(config), "--trials", "20000"]) == EXIT_OK
    captured = capsys.readouterr()
    assert [line.split()[1] for line in captured.out.splitlines()[1:]] == ["PASS"] * len(cli.DEFAULT_CHECKS)
    for mode in ("analytic", "mc"):
        argv = ["sweep", "--config", str(config), "--mode", mode, "--power=-447.6862887818706",
                "--relay-power-db", "436.5939853558936", "--trials", "20000", "--output", str(out)]
        assert main(argv) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(0.0 < float(row["rate_sum"]) < 1e-170 and 0.5 <= float(row["jain"]) <= 1.0 for row in rows)


def scipy_modules_after_sweep(mode: str, config_path: str, out) -> str:
    """The sorted scipy modules a fresh process holds after a `mode` sweep; this one has scipy already."""
    proc = run_fresh(
        "import sys\n"
        "import fdnoma, fdnoma.cli\n"
        "from fdnoma.config import load_config\n"
        "load_config(sys.argv[1])\n"
        "code = fdnoma.cli.main(['sweep', '--config', sys.argv[1], '--mode', sys.argv[3], '--power', '0,20',\n"
        "                        '--trials', '2000', '--output', sys.argv[2]])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n",
        config_path,
        str(out),
        mode,
    )
    assert out.exists()
    return proc.stdout.splitlines()[-1]


def test_simulation_alone_never_loads_scipy(config_path, tmp_path):
    assert scipy_modules_after_sweep("mc", config_path, tmp_path / "mc.csv") == "[]"


@pytest.mark.parametrize("mode", ["analytic", "both"])
def test_closed_form_sweeps_never_load_scipy(mode, config_path, tmp_path):
    # The far-user rates integrate in numpy and the near-user rate kernel is
    # closed at its singular point too.
    singular = tmp_path / "singular.cfg"
    singular.write_text(SINGULAR_CONFIG)
    for path in (config_path, str(singular)):
        assert scipy_modules_after_sweep(mode, path, tmp_path / f"{mode}.csv") == "[]", path


def test_every_command_runs_with_scipy_blocked(config_path, tmp_path):
    # An import of scipy anywhere raises ImportError in this child.
    singular = tmp_path / "singular.cfg"
    singular.write_text(SINGULAR_CONFIG)
    out = str(tmp_path / "out.csv")
    commands = [
        *(["sweep", "--mode", mode, "--power", "0,20", "--trials", "2000", "--output", out]
          for mode in ("mc", "analytic", "both")),
        ["validate", "--trials", "20000"],
    ]
    proc = run_fresh(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import fdnoma.cli\n"
        "for config in sys.argv[2:]:\n"
        "    for argv in json.loads(sys.argv[1]):\n"
        "        code = fdnoma.cli.main([argv[0], '--config', config, *argv[1:]])\n"
        "        print('exit', code, argv[0], argv[2] if argv[0] == 'sweep' else '', config)\n",
        json.dumps(commands),
        config_path,
        str(singular),
    )
    codes = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("exit ")]
    assert codes == ["0"] * 8, proc.stdout


def test_validate_passes_at_the_kernel_singularity(tmp_path, capsys):
    # With scipy's quad as the kernel's fallback there, rate_u1_max_u2 read 0
    # and closed_form_vs_quadrature and simulation_vs_analytic failed.
    path = tmp_path / "singular.cfg"
    path.write_text(SINGULAR_CONFIG)
    assert main(["validate", "--config", str(path), "--trials", "200000", "--seed", "1"]) == EXIT_OK, capsys.readouterr().out


def test_module_entry_point(config_path, tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "fdnoma.cli",
            "sweep",
            "--config",
            config_path,
            "--mode",
            "analytic",
            "--power",
            "10:20:10",
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote 4 rows" in proc.stdout  # 2 points x 2 default analytic schemes
