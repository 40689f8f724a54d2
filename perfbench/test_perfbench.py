"""Tests of the benchmark itself: tiny-trial runs, and checks that catch bad outputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from fdnoma import cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "mc_joint_search": dict(trials=4096, power="0:10:10"),
    "both_closed_form": dict(trials=20_000, power="0:10:10"),
    "analytic_dense": dict(power="0:10:5"),
    "validate_default": dict(trials=20_000),
}


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def test_benchmark_names_the_workloads_it_runs():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    result, detail = run.measure(tiny(name), seed=1, seconds=0.0, trace=bool(trace))
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def corrupting_write_csv(monkeypatch, edit, calls=None):
    """Make cli.write_csv pass its file through edit(text) on the given call numbers (all if None)."""
    original = cli.write_csv
    seen = []

    def write_csv(rows, target):
        original(rows, target)
        seen.append(target)
        if calls is None or len(seen) in calls:
            with open(target) as handle:
                text = handle.read()
            with open(target, "w") as handle:
                handle.write(edit(text))

    monkeypatch.setattr(cli, "write_csv", write_csv)


def assert_failures_counted(result, detail, failed):
    assert result["failed"] == failed and not result["correct"]
    if "ok_frac" in result["metrics"]:
        assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1.0 - failed / result["attempted"])
    assert detail["failed_frac"] == pytest.approx(failed / result["attempted"])


def test_traced_csv_that_differs_counts_as_failed(monkeypatch):
    # A traced run makes an untraced call, then a traced one; the traced one
    # writes a value no other check reads.
    corrupting_write_csv(monkeypatch, edit_cell("random", "monte_carlo", "jain", "0.5"), calls={2})
    result, detail = run.measure(tiny("mc_joint_search"), seed=1, seconds=0.0, trace=True)
    assert_failures_counted(result, detail, failed=1)
    assert any("differ" in p for p in detail["problems"])


def break_dominance(text: str) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[1] == "max_u2_exhaustive":
            cells[4] = "0"  # rate_u2
            lines[i] = ",".join(cells)
    return "".join(lines)


def test_broken_dominance_counts_as_failed(monkeypatch):
    corrupting_write_csv(monkeypatch, break_dominance)
    result, detail = run.measure(tiny("mc_joint_search"), seed=1, seconds=0.0, trace=False)
    assert_failures_counted(result, detail, failed=1)
    assert any("rate_u2 of" in p for p in detail["problems"])


def test_failed_call_in_child_counts_as_failed():
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "default.cfg").write_text(workloads.DEFAULT_CONFIG)
    session = run.Session(tiny("analytic_dense"), seed=1)
    session.argv[session.argv.index("--config") + 1] = str(run.OUT / "missing.cfg")
    session.call_in_child()
    assert (session.attempted, session.failed) == (1, 1)


@pytest.fixture(scope="module")
def outputs():
    """Stdout and CSV text of one tiny call per workload, unmodified."""
    out = {}
    for name in TINY:
        workload = tiny(name)
        csv_path = run.ROOT / run.OUT / f"test_{name}.csv"
        config = run.ROOT / run.OUT / "test.cfg"
        config.parent.mkdir(exist_ok=True)
        config.write_text(workloads.DEFAULT_CONFIG)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(workload.argv(str(config), 1, str(csv_path)))
        out[name] = (code, buffer.getvalue(), csv_path.read_text() if csv_path.exists() else None)
    return out


def check(name, outputs, stdout_edit=None, csv_edit=None, code=None):
    base_code, stdout, csv_text = outputs[name]
    params = cli.load_config(run.ROOT / run.OUT / "test.cfg")
    return tiny(name).check(
        base_code if code is None else code,
        stdout_edit(stdout) if stdout_edit else stdout,
        csv_edit(csv_text) if csv_edit else csv_text,
        params,
    )


def edit_cell(scheme, kind, column, value):
    def edit(text):
        lines = text.splitlines(keepends=True)
        header = lines[0].strip().split(",")
        for i, line in enumerate(lines[1:], start=1):
            cells = line.rstrip("\n").split(",")
            if cells[1] == scheme and cells[-1] == kind:
                cells[header.index(column)] = value
                lines[i] = ",".join(cells) + "\n"
                break
        return "".join(lines)

    return edit


def test_unmodified_outputs_pass(outputs):
    for name in TINY:
        assert check(name, outputs) == [], name


@pytest.mark.parametrize(
    "name, edit",
    [
        ("mc_joint_search", edit_cell("random", "monte_carlo", "rate_sum", "99")),
        ("mc_joint_search", edit_cell("max_u1_analytic", "monte_carlo", "rate_u1", "0.5")),
        ("mc_joint_search", edit_cell("random", "monte_carlo", "rate_u1", "nan")),
        ("mc_joint_search", lambda text: text.rsplit("\n", 2)[0] + "\n"),
        ("mc_joint_search", lambda text: text.replace("rate_u1", "rate_1", 1)),
        ("both_closed_form", edit_cell("max_u2_decoupled", "monte_carlo", "rate_u2", "0.1")),
        ("both_closed_form", edit_cell("max_u1_analytic", "monte_carlo", "outage_u2", "0.9")),
        ("analytic_dense", edit_cell("max_u2_decoupled", "analytic", "rate_u2", "2")),
        ("analytic_dense", edit_cell("max_u1_analytic", "analytic", "outage_u1", "-0.1")),
    ],
)
def test_checker_rejects_bad_csv(outputs, name, edit):
    assert check(name, outputs, csv_edit=edit)


@pytest.mark.parametrize("events, ok", [(0, True), (1, True), (2, True), (3, False)])
def test_rare_outage_judged_by_exact_tail(events, ok):
    # At 30 dB the closed-form near-user outage is about 1e-8: one event in 1e6
    # trials happens on 1% of seeds, two on 1 in 20,000, three on 1 in 6 million.
    trials, p = 1_000_000, 1.0113939130640404e-08
    row = dict(power_db=30.0, scheme="max_u1_analytic", rate_u1=5.0, rate_u1_se=0.01, rate_u2=1.0,
               rate_u2_se=0.01, outage_u1=p, outage_u2=0.5)
    mc = dict(row, kind="monte_carlo", outage_u1=events / trials,
              outage_u2=0.5 + 1e-4)  # 0.2 se off the closed form
    assert (workloads._check_mc_vs_analytic([dict(row, kind="analytic"), mc], trials) == []) == ok


def test_checker_rejects_bad_stdout_and_exit_code(outputs):
    assert check("analytic_dense", outputs, stdout_edit=lambda s: s + "NON_CONVERGED at 3 dB / x\n")
    assert check("validate_default", outputs, stdout_edit=lambda s: s.replace("PASS", "FAIL", 1))
    assert check("validate_default", outputs, stdout_edit=lambda s: s.rsplit("\n", 2)[0])
    assert check("both_closed_form", outputs, code=3)


def test_exits_nonzero_without_sources():
    sparse = run.ROOT / run.OUT / "sparse"
    shutil.rmtree(sparse, ignore_errors=True)
    sparse.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", sparse)
    shutil.copytree(run.ROOT / "perfbench", sparse / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=sparse, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(sparse)
    assert proc.returncode != 0
    assert proc.stdout == ""
