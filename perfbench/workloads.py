"""The four benchmark workloads and the checks on their outputs.

Every workload is one call of the public CLI entry point
``fdnoma.cli.main`` on the default 4x4x4 configuration.  The checks read
only what a user gets back: the exit code, stdout and the CSV.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from fdnoma.cli import parse_power_grid
from fdnoma.config import SystemParams
from fdnoma.montecarlo import CSV_COLUMNS
from fdnoma.selection import SCHEMES

# Written to a file at start-up; every other key keeps its SystemParams default.
DEFAULT_CONFIG = "m_b = 4\nm_r = 4\nm_t = 4\n"

CLOSED_FORM_SCHEMES = ("max_u1_analytic", "max_u2_decoupled")
VALIDATE_CHECKS = (
    "alternating_sum_identity",
    "cdf_sanity",
    "closed_form_vs_quadrature",
    "outage_cdf_identity",
    "simulation_vs_analytic",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "validate"
    mode: str = "mc"  # sweep mode: "mc", "analytic" or "both"
    schemes: tuple[str, ...] = SCHEMES
    power: str = "20"
    trials: int = 0

    def argv(self, config: str, seed: int, output: str) -> list[str]:
        if self.command == "validate":
            return ["validate", "--config", config, "--trials", str(self.trials), "--seed", str(seed)]
        argv = ["sweep", "--config", config, "--mode", self.mode, "--schemes", ",".join(self.schemes),
                "--power", self.power, "--seed", str(seed), "--output", output]
        if self.mode != "analytic":
            argv += ["--trials", str(self.trials)]
        return argv

    @property
    def points(self) -> int:
        return len(parse_power_grid(self.power))

    @property
    def work_items(self) -> int:
        """Work in one call: scheme-trials simulated (trials x schemes x power points),
        or (point, scheme) closed-form evaluations when nothing is simulated."""
        if self.command == "validate":
            # _check_mc_vs_analytic runs estimate_rates and estimate_outage per scheme.
            return 2 * len(CLOSED_FORM_SCHEMES) * self.trials
        if self.mode == "analytic":
            return self.points * len(self.schemes)
        return self.trials * len(self.schemes) * self.points

    def check(self, exit_code: int, stdout: str, csv_text: str | None, params: SystemParams) -> list[str]:
        """Problems with one call's outputs; empty when all checks pass."""
        if self.command == "validate":  # a FAIL line also exits nonzero; name the check
            return [f"exit code {exit_code}"] * (exit_code != 0) + _check_validate(stdout)
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        rows, problems = _parse_rows(csv_text, self)
        if problems:
            return problems
        if self.mode == "mc":
            return _check_dominance(rows, self.schemes)
        if self.mode == "both":
            return _check_mc_vs_analytic(rows, self.trials)
        return _check_analytic(rows, stdout, params)


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # One full block per point keeps each call short, so a run holds enough calls
        # for a steady median.  Block-level work (parallel blocks) shows only on
        # both_closed_form and validate_default, which run 16 blocks per point.
        Workload("mc_joint_search", "sweep", mode="mc", power="0:30:10", trials=65536),
        Workload("both_closed_form", "sweep", mode="both", schemes=CLOSED_FORM_SCHEMES, power="0:30:10",
                 trials=1_000_000),
        Workload("analytic_dense", "sweep", mode="analytic", schemes=CLOSED_FORM_SCHEMES, power="0:60:0.1"),
        Workload("validate_default", "validate", trials=1_000_000),
    )
}


def _parse_rows(csv_text: str | None, workload: Workload) -> tuple[list[dict], list[str]]:
    if csv_text is None:
        return [], ["no CSV written"]
    reader = csv.DictReader(io.StringIO(csv_text))
    if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
        return [], [f"CSV header {reader.fieldnames}"]
    rows = list(reader)
    for row in rows:
        for key, value in row.items():
            if key not in ("scheme", "kind"):
                row[key] = float(value)
    kinds = {"mc": ("monte_carlo",), "analytic": ("analytic",), "both": ("monte_carlo", "analytic")}
    expected = {
        (p, s, k)
        for p in parse_power_grid(workload.power)
        for s in workload.schemes
        for k in kinds[workload.mode]
    }
    got = [(r["power_db"], r["scheme"], r["kind"]) for r in rows]
    if len(got) != len(expected) or set(got) != expected:
        return rows, [f"CSV has rows {sorted(set(got) ^ expected)[:4]} out of place"]
    bad = [r for r in rows if not all(math.isfinite(v) for k, v in r.items() if k not in ("scheme", "kind"))]
    return rows, [f"{r['power_db']} dB {r['scheme']} {r['kind']}: non-finite value" for r in bad]


def _by_point(rows: list[dict], kind: str) -> dict[float, dict[str, dict]]:
    points: dict[float, dict[str, dict]] = {}
    for row in rows:
        if row["kind"] == kind:
            points.setdefault(row["power_db"], {})[row["scheme"]] = row
    return points


def _check_dominance(rows: list[dict], schemes: tuple[str, ...]) -> list[str]:
    """Common random numbers make these per-realization relations exact in the means."""
    problems = []
    for power, by_scheme in _by_point(rows, "monte_carlo").items():
        best = {
            "rate_u2": by_scheme["max_u2_exhaustive"]["rate_u2"],
            "rate_sum": by_scheme["optimum_sumrate"]["rate_sum"],
            "rate_u1": by_scheme["max_u1"]["rate_u1"],
        }
        for scheme in schemes:
            for metric, top in best.items():
                if by_scheme[scheme][metric] > top:
                    problems.append(f"{power} dB: {metric} of {scheme} exceeds the scheme that maximizes it")
        if by_scheme["max_u1"]["rate_u1"] != by_scheme["max_u1_analytic"]["rate_u1"]:
            problems.append(f"{power} dB: rate_u1 of max_u1 and max_u1_analytic differ")
    return problems


def _check_mc_vs_analytic(rows: list[dict], trials: int) -> list[str]:
    """Each Monte Carlo rate and outage against its closed form.

    validate judges 8 comparisons by "within 4 se"; a call here makes 32.
    Each is held to a 32nd of the false-alarm rate of one 4 se comparison
    (Bonferroni), so that correct code fails a call no more often than one
    4 se comparison fails.  Rates are judged on the normal tail with their
    own se.  Outages are judged on the exact binomial tail of the event
    count under the closed-form probability: the normal approximation fails
    when trials x p is far below 1, where at p = 1e-8 and 1e6 trials one
    event, a 1% outcome, reads as 99 se.
    """
    from scipy.stats import binom, norm

    mc_rows = _by_point(rows, "monte_carlo")
    analytic = _by_point(rows, "analytic")
    comparisons = 4 * sum(len(by_scheme) for by_scheme in mc_rows.values())
    tail = norm.sf(4.0) / comparisons  # one side, per comparison
    z = norm.isf(tail)
    problems = []
    for power, by_scheme in mc_rows.items():
        for scheme, mc in by_scheme.items():
            reference = analytic[power][scheme]
            for metric in ("rate_u1", "rate_u2"):
                target = reference[metric]
                if not abs(mc[metric] - target) <= z * mc[metric + "_se"] + 1e-12:
                    problems.append(f"{power} dB {scheme} {metric}: {mc[metric]!r} vs {target!r} > {z:.2f} se")
            for metric in ("outage_u1", "outage_u2"):
                events, p = round(mc[metric] * trials), min(max(reference[metric], 0.0), 1.0)
                if events >= trials * p:
                    side = binom.sf(events - 1, trials, p)
                else:
                    side = binom.cdf(events, trials, p)
                if not side >= tail:
                    problems.append(f"{power} dB {scheme} {metric}: {events} events in {trials} trials "
                                    f"vs p = {p!r}, tail probability {side:.3g} < {tail:.3g}")
    return problems


def _check_analytic(rows: list[dict], stdout: str, params: SystemParams) -> list[str]:
    problems = []
    if "NON_CONVERGED" in stdout:
        problems.append("NON_CONVERGED note on stdout")
    cap = math.log2(1.0 + params.a2 / params.a1)
    for row in rows:
        where = f"{row['power_db']} dB {row['scheme']}"
        if not (0.0 <= row["outage_u1"] <= 1.0 and 0.0 <= row["outage_u2"] <= 1.0):
            problems.append(f"{where}: outage outside [0, 1]")
        elif not 0.0 <= row["rate_u2"] < cap:
            problems.append(f"{where}: rate_u2 {row['rate_u2']!r} outside [0, {cap!r})")
    return problems


def _check_validate(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()[1:]
    verdicts = {line.split()[0]: line.split()[1] for line in lines if len(line.split()) > 1}
    if tuple(verdicts) != VALIDATE_CHECKS:
        return [f"validate printed checks {tuple(verdicts)}"]
    return [f"{name} reads {verdict}" for name, verdict in verdicts.items() if verdict != "PASS"]
