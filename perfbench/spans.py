"""Spans around calls into each fdnoma layer, recorded from outside the package.

``traced(recorder)`` patches, for the duration of a ``with`` block, the
name each caller looks up: ``cli`` imports ``run_sweep``, ``write_csv``
and friends by name, ``montecarlo`` imports ``draw_batch``,
``select_batch`` and the SINR kernels by name, and ``analytic`` calls its
own CDFs and ``rate_from_cdf`` through module globals.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import time
from collections import Counter, defaultdict

from fdnoma import analytic, cli, montecarlo, selection

SINR_KERNELS = ("relay_sinr", "cross_sinr", "near_sinr", "rate_bits")
CDFS = ("cdf_gamma1_max_u1", "cdf_gamma1_max_u2", "cdf_gamma2_max_u1", "cdf_gamma2_max_u2")
CLOSED_FORMS = (
    "rate_u1_max_u1", "rate_u1_max_u2",
    "outage_u1_max_u1", "outage_u1_max_u2", "outage_u2_max_u1", "outage_u2_max_u2",
)


class Recorder:
    """Spans (name, start, end, parent id) plus counts taken at the same boundaries.

    A span's id is its index in ``spans``; the slot is filled when the call
    returns, so a parent's slot is still ``None`` while its children run.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.error_bound_max = 0.0
        self.outage_events: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        """Wrap fn in a span; name is a string or a function of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[label + ".errors"] += 1
                raise
            finally:
                self.spans[sid] = (label, start, time.perf_counter(), parent)
                self._stack.pop()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    # Hooks that read counts off arguments and results.

    def _drawn(self, batch, *args, **kwargs):
        self.counts["draw.trials"] += batch.count
        self.counts["draw.bytes"] += sum(
            a.nbytes for a in (batch.g_br, batch.g_su1, batch.g_ru1, batch.g_ru2, batch.g_si)
        )

    def _selected(self, result, scheme, batch, *args, **kwargs):
        self.counts[f"selection.{scheme}.trials"] += batch.count

    def _quadrature(self, result, *args, **kwargs):
        self.counts["quad.evaluations"] += result.evaluations
        self.error_bound_max = max(self.error_bound_max, result.abs_error_bound)

    def _csv_written(self, result, rows, target, *args, **kwargs):
        self.counts["csv.bytes"] += os.path.getsize(target)

    def _swept(self, rows, *args, **kwargs):
        for row in rows:
            for estimate in (row.metrics.outage_u1, row.metrics.outage_u2):
                if not math.isnan(estimate.value):
                    self.outage_events.append(round(estimate.value * row.trials))

    def _outage(self, result, *args, **kwargs):
        if not result.threshold_infeasible:
            for estimate in (result.outage_u1, result.outage_u2):
                self.outage_events.append(round(estimate.value * estimate.trials))


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Patch every traced name for the duration of the block, then restore it."""
    patches = [
        (cli, "load_config", recorder.wrap("config.load_config", cli.load_config)),
        (cli, "run_sweep", recorder.wrap("montecarlo.simulate", cli.run_sweep, recorder._swept)),
        (cli, "estimate_rates", recorder.wrap("montecarlo.simulate", cli.estimate_rates)),
        (cli, "estimate_outage", recorder.wrap("montecarlo.simulate", cli.estimate_outage, recorder._outage)),
        (cli, "analytic_sweep", recorder.wrap("montecarlo.analytic_sweep", cli.analytic_sweep)),
        (cli, "write_csv", recorder.wrap("montecarlo.write_csv", cli.write_csv, recorder._csv_written)),
        (montecarlo, "draw_batch", recorder.wrap("channel.draw_batch", montecarlo.draw_batch, recorder._drawn)),
        (montecarlo, "select_batch", recorder.wrap(
            lambda scheme, *a, **k: f"selection.{scheme}", montecarlo.select_batch, recorder._selected)),
        (analytic, "rate_from_cdf", recorder.wrap(
            "analytic.rate_from_cdf", analytic.rate_from_cdf, recorder._quadrature)),
    ]
    patches += [(selection, k, recorder.wrap("sinr.in_selection", getattr(selection, k))) for k in SINR_KERNELS]
    patches += [(montecarlo, k, recorder.wrap("sinr.in_montecarlo", getattr(montecarlo, k))) for k in SINR_KERNELS]
    patches += [(analytic, k, recorder.wrap("analytic.cdf", getattr(analytic, k))) for k in CDFS]
    patches += [(analytic, k, recorder.wrap("analytic.closed_form", getattr(analytic, k))) for k in CLOSED_FORMS]
    # DEFAULT_CHECKS bound its functions at import, so validate gets wrapped checks passed in.
    checks = tuple((name, recorder.wrap(f"cli.check.{name}", fn)) for name, fn in cli.DEFAULT_CHECKS)
    validate = cli.cmd_validate
    patches.append((cli, "cmd_validate", lambda args: validate(args, checks=checks)))

    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield recorder
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time (duration minus direct children's durations) and call count per name."""
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own, calls = defaultdict(float), Counter()
    for sid, (name, start, end, parent) in enumerate(spans):
        own[name] += end - start - child[sid]
        calls[name] += 1
    return own, calls


def block_durations(spans) -> list[float]:
    """Start-to-start time between draw_batch calls; a simulation's last block runs to its end."""
    draws = defaultdict(list)
    for name, start, end, parent in spans:
        if name == "channel.draw_batch":
            draws[parent].append(start)
    out = []
    for parent, starts in draws.items():
        starts.sort()
        out += [b - a for a, b in zip(starts, starts[1:] + [spans[parent][2]])]
    return out


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced call, keyed as in BENCHMARK.json."""
    spans = recorder.spans
    own, calls = self_times(spans)
    inclusive = defaultdict(float)
    for name, start, end, parent in spans:
        inclusive[name] += end - start
    counts = recorder.counts

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    blocks = block_durations(spans)
    deciles = statistics.quantiles(blocks, n=10, method="inclusive") if len(blocks) > 1 else [sum(blocks, 0.0)] * 9
    metrics = {
        "channel.draw_batch.self_s": own["channel.draw_batch"],
        "channel.draw_batch.calls": calls["channel.draw_batch"],
        "channel.draw_trials_per_s": rate(counts["draw.trials"], own["channel.draw_batch"]),
        "channel.bytes_drawn": counts["draw.bytes"],
    }
    for scheme in selection.SCHEMES:
        name = f"selection.{scheme}"
        metrics[name + ".self_s"] = own[name]
        metrics[name + ".trials_per_s"] = rate(counts[name + ".trials"], inclusive[name])
    for where in ("in_selection", "in_montecarlo"):
        metrics[f"sinr.{where}.self_s"] = own[f"sinr.{where}"]
        metrics[f"sinr.{where}.calls"] = calls[f"sinr.{where}"]
    metrics.update({
        "montecarlo.simulate.self_s": own["montecarlo.simulate"],
        "montecarlo.blocks": len(blocks),
        "montecarlo.block_s_p50": deciles[4],
        "montecarlo.block_s_p90": deciles[8],
        "montecarlo.write_csv_s": inclusive["montecarlo.write_csv"],
        "montecarlo.csv_bytes": counts["csv.bytes"],
        "montecarlo.analytic_sweep.self_s": own["montecarlo.analytic_sweep"],
        # 0 also when the workload simulates nothing.
        "montecarlo.outage_events_min": min(recorder.outage_events, default=0),
        "analytic.rate_from_cdf.self_s": own["analytic.rate_from_cdf"],
        "analytic.rate_from_cdf.calls": calls["analytic.rate_from_cdf"],
        "analytic.quad_evaluations": counts["quad.evaluations"],
        "analytic.quad_error_bound_max": recorder.error_bound_max,
        "analytic.cdf.calls": calls["analytic.cdf"],
        "analytic.cdf.self_s": own["analytic.cdf"],
        "analytic.closed_form_s": own["analytic.closed_form"],
        "analytic.non_converged": counts["analytic.rate_from_cdf.errors"],
        "cli.cmd.self_s": own["cli.cmd"],
        "config.load_config_s": inclusive["config.load_config"],
    })
    for name, _ in cli.DEFAULT_CHECKS:
        metrics[f"cli.check.{name}_s"] = inclusive[f"cli.check.{name}"]
    return metrics
