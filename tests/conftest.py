import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fdnoma.analytic import LN2, _scaled_e1, thresholds, zeta
from fdnoma.channel import GROUPS, GainBatch, draw_batch
from fdnoma.config import SystemParams, db_to_linear, default_params, mean_gains
from fdnoma.montecarlo import SinrBuffers, gather_draws, read_sinrs
from fdnoma.results import write_csv
from fdnoma.selection import _TILE_GRID_BYTES


def make_params(**overrides) -> SystemParams:
    """Baseline parameter set with selective overrides, checked as it is made."""
    return SystemParams(**overrides)


def power_points_oracle(params, sweep):
    """Each point's parameters, made (and so checked in full) one point at a time."""
    for power_db in sweep.power_db:
        relay_db = power_db if sweep.relay_power_db is None else sweep.relay_power_db
        yield replace(params, rho_s=db_to_linear(power_db), rho_r=db_to_linear(relay_db))


def batch_from(g_br, g_su1, g_ru1, g_ru2, g_si) -> GainBatch:
    """A one-realization batch from per-antenna gains (no trial axis)."""
    arrays = [np.asarray(g, dtype=float)[None] for g in (g_br, g_su1, g_ru1, g_ru2, g_si)]
    return GainBatch(*arrays, count=1)


def scaled(batch: GainBatch) -> GainBatch:
    """The batch's gains at its point, with unit means: each group's draws times its mean.

    The oracles read these, so that they do not depend on the simulator's own scaling.
    """
    return GainBatch(*(getattr(batch, name) * lam for name, lam in zip(GROUPS, batch.means)), batch.count)


def draw_gains(params: SystemParams, entropy: tuple[int, ...], count: int) -> GainBatch:
    """scaled(draw_batch(...)): the gains at params' powers of `count` realizations of a stream."""
    return scaled(draw_batch(params, entropy, count))


def chosen_sinrs(batch: GainBatch, ii: np.ndarray, jj: np.ndarray, kk: np.ndarray, params: SystemParams) -> tuple:
    """Per-realization SINRs under the chosen (i, j, k) of every row of the batch, at its own means.

    (gamma_1, gamma_12, gamma_r, gamma_2, g_ru2) as read_sinrs gives them:
    gather_draws into fresh buffers, then read_sinrs at batch.means.
    """
    out = SinrBuffers(batch.count)
    return read_sinrs(gather_draws(batch, ii, jj, kk, params, out), batch.means, params, out)


def tile_rows(params: SystemParams) -> int:
    """Rows in one tile of the joint searches' far-user grid."""
    return _TILE_GRID_BYTES // (8 * params.m_b * params.m_r * params.m_t)


def fresh_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this fdnoma, installed or not."""
    import fdnoma

    src = str(Path(fdnoma.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def run_fresh(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this fdnoma, with `env` added to its environment;
    fails the test on a nonzero exit.

    For checks of what a process loads: this one has imported everything the
    other tests use.
    """
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=dict(fresh_env(), **env), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# The far-user links and breakpoints that fdnoma.analytic's array evaluators
# replaced, kept verbatim as the oracle.  The alternating link sums cancel, so
# the laws are held to mpmath evaluations of the oracle's links instead
# (mp_law_cdf), and the near-user rate to mpmath's integral of the near link
# (test_analytic.mp_near_user_rate).


def _clamp_probability(raw: float) -> float:
    if raw < -1e-12 or raw > 1.0 + 1e-12:
        raise RuntimeError(f"CDF_RANGE_VIOLATION: raw probability {raw!r}")
    return min(max(raw, 0.0), 1.0)


# The links of the far-user chain.  A link is the strongest of m exponential
# gains of mean lam, over 1 plus an exponential interferer of mean lam_i / m_i
# when lam_i > 0 (den = m_i * lam).  At the gain ratio r its survival is the
# alternating binomial sum
#
#     m * sum_p ((sign_p C(m-1, p)) * exp(-(p+1) r / lam))
#               / ((p+1) (1 + ((lam_i (p+1)) r) / den)),     p < m.
#
# A link holds m, lam, den and, per term, the precomputed
# (sign_p C(m-1, p), -(p+1), p+1, lam_i (p+1)).
_Link = tuple[int, float, float, tuple[tuple[float, int, int, float], ...]]


def _link(m: int, lam: float, lam_i: float = 0.0, den: float = 1.0) -> _Link:
    coeffs = tuple(
        ((-1.0) ** p * math.comb(m - 1, p), -(p + 1), p + 1, lam_i * (p + 1)) for p in range(m)
    )
    return m, lam, den, coeffs


def _far_links_max_u1(params: SystemParams) -> tuple[_Link, _Link, _Link]:
    """Cross, relay and far links under near-user-first selection.

    The cross link (strongest of m_b over the weakest of m_t interferers)
    and the relay link (strongest of m_r over self-interference) take the
    gain ratio x / (a2 - a1 x); the far link (one fixed antenna) takes x.
    """
    g = mean_gains(params)
    return (
        _link(params.m_b, g.lam_su1, g.lam_ru1, params.m_t * g.lam_su1),
        _link(params.m_r, g.lam_br, g.lam_si, g.lam_br),
        _link(1, g.lam_ru2),
    )


def _far_links_max_u2(params: SystemParams) -> tuple[_Link, _Link, _Link]:
    """Cross, relay and far links under far-user decoupled selection."""
    g = mean_gains(params)
    return (
        _link(1, g.lam_su1, g.lam_ru1, g.lam_su1),
        _link(params.m_b, g.lam_br, g.lam_si, params.m_r * g.lam_br),
        _link(params.m_t, g.lam_ru2),
    )


ORACLE_FAR_LINKS = {"max_u1_analytic": _far_links_max_u1, "max_u2_decoupled": _far_links_max_u2}


def oracle_links(params: SystemParams, scheme: str) -> list[tuple]:
    """Every link (m, lam, lam_i, den) of a scheme: the near link as cdf_gamma1_* spelled it
    out (the near-user rate's terms), then the cross, relay and far links."""
    g = mean_gains(params)
    scale = params.a1 * g.lam_su1
    if scheme == "max_u1_analytic":
        near = (params.m_b, scale, g.lam_ru1, params.m_t * scale)
    else:
        near = (1, scale, g.lam_ru1, scale)
    return [near, *((m, lam, coeffs[0][3], den) for m, lam, den, coeffs in ORACLE_FAR_LINKS[scheme](params))]


def mp_link_cdf(m: int, a, b):
    """F of a link at a = t / lam, b = lam_i t / den, in mpmath at the caller's precision.

    The alternating form F = sum_k C(m, k) (-c)^k / (1 + k b), c = e^-a; it
    needs about log10 C(m, m/2) more digits than the answer keeps, 18 at m = 64.
    """
    c = mp.exp(-a)
    return mp.fsum(mp.binomial(m, k) * (-c) ** k / (1 + k * b) for k in range(m + 1))


# Enough digits for an F down to 1e-290 under 18 digits of cancellation.
MP_LAW_DPS = 450


def mp_law_cdf(links, points) -> float:
    """1 - prod(1 - F_i) of links (m, lam, lam_i, den) at their points, at MP_LAW_DPS digits."""
    with mp.workdps(MP_LAW_DPS):
        survival = mp.mpf(1)
        for (m, lam, lam_i, den), t in zip(links, points):
            t = mp.mpf(t)
            survival *= 1 - mp_link_cdf(m, t / lam, lam_i * t / den)
        return float(1 - survival)


def mp_far_user_cdf(params: SystemParams, scheme: str, x: float, cross_link: bool = True) -> float:
    """The far-user chain's F at x (see analytic.Laws.far_cdf), at MP_LAW_DPS digits."""
    if x <= 0.0:
        return 0.0
    if x >= params.a2 / params.a1:
        return 1.0
    with mp.workdps(MP_LAW_DPS):
        r = mp.mpf(x) / (mp.mpf(params.a2) - mp.mpf(params.a1) * x)
    links = oracle_links(params, scheme)[1 if cross_link else 2 :]
    return mp_law_cdf(links, [r] * (len(links) - 1) + [x])


def mp_outages(params: SystemParams, scheme: str) -> tuple[float, float]:
    """(outage_u1, outage_u2) under a scheme, at MP_LAW_DPS digits."""
    z = zeta(params)
    near = 1.0 if math.isinf(z) else mp_law_cdf(oracle_links(params, scheme)[:1], [params.a1 * z])
    return near, mp_far_user_cdf(params, scheme, thresholds(params)[1], cross_link=False)


def oracle_breakpoints(params: SystemParams, scheme: str, hi: float) -> list[float]:
    """The inner points of a far-user rate's first partition, one parameter set at a time."""
    a1, a2 = params.a1, params.a2
    cap = a2 / a1
    links = ORACLE_FAR_LINKS[scheme](params)
    ratio_scales = [a2 * lam / (1.0 + a1 * lam) for _, lam, _, _ in links[:2]]
    points = [*ratio_scales, links[2][1]]
    points += [min(points) * 4.0**k for k in range(8)]
    nearest = (cap - max(ratio_scales)) / 4.0
    distance = cap / 4.0
    while distance > nearest and cap - distance < hi:
        points.append(cap - distance)
        distance /= 4.0
    return sorted({p for p in points if 0.0 < p < hi})


def oracle_far_user_rates(grid, scheme: str, rel_tol: float = 1e-8, abs_tol: float = 1e-9) -> list:
    """analytic.far_user_rates over a PowerGrid with its own copy of the qag loop that analytic._qag now
    runs, as the oracle.

    Verbatim but for its gk21 binding the survival to integrate.
    """
    from fdnoma.analytic import _MAX_INTERVALS, Laws, _checked, _gk21

    count = len(grid.gains)
    laws = Laws(grid, scheme)
    hi = np.full(count, laws.a2 / laws.a1 * (1.0 - 1e-12))
    edges = np.column_stack([np.zeros(count), laws.breakpoints(hi), hi])
    edges.sort(axis=1)
    rows, slots = np.nonzero(np.isfinite(edges[:, 1:]))
    lo, up = edges[rows, slots], edges[rows, slots + 1]
    gk21 = lambda rows, a, b: _gk21(laws.far_survival, rows, a, b)
    result, error, resasc = gk21(rows, lo, up)

    last = np.bincount(rows, minlength=count)
    width = max(int(last.max()), _MAX_INTERVALS)
    starts, ends = np.zeros((count, width)), np.zeros((count, width))
    values = np.zeros((count, width))
    errors = np.full((count, width), -np.inf)
    starts[rows, slots], ends[rows, slots] = lo, up
    values[rows, slots], errors[rows, slots] = result, error
    area = np.bincount(rows, weights=result, minlength=count)
    errsum = np.bincount(rows, weights=error, minlength=count)
    saturated = np.bincount(rows, weights=(error == resasc) & (error != 0.0), minlength=count) > 0
    evaluations = 21 * last
    epsabs = abs_tol * LN2
    done = (errsum <= np.maximum(epsabs, rel_tol * np.abs(area))) & ~saturated
    while True:
        act = np.flatnonzero(~done & (last < _MAX_INTERVALS))
        if not len(act):
            break
        worst = np.argmax(errors[act, : int(last[act].max())], axis=1)
        a, b = starts[act, worst], ends[act, worst]
        mid = 0.5 * (a + b)
        res, err, _ = gk21(np.concatenate([act, act]), np.concatenate([a, mid]), np.concatenate([mid, b]))
        res1, res2 = np.split(res, 2)
        err1, err2 = np.split(err, 2)
        errsum[act] = errsum[act] + (err1 + err2) - errors[act, worst]
        area[act] = area[act] + (res1 + res2) - values[act, worst]
        ends[act, worst], values[act, worst], errors[act, worst] = mid, res1, err1
        new = last[act]
        starts[act, new], ends[act, new], values[act, new], errors[act, new] = mid, b, res2, err2
        last[act] += 1
        evaluations[act] += 42
        done[act] = errsum[act] <= np.maximum(epsabs, rel_tol * np.abs(area[act]))
    return [
        _checked(
            math.fsum(values[row, : last[row]]) / LN2,
            float(errsum[row]) / LN2,
            int(evaluations[row]),
            rel_tol,
            abs_tol,
        )
        for row in range(count)
    ]


def criterion_2_grid() -> list[SystemParams]:
    """The 20 parameter sets of acceptance criterion 2, near-singular kernels included."""
    base = [
        make_params(),
        make_params(m_b=1, m_r=1, m_t=1),
        make_params(m_b=2, m_r=1, m_t=3),
        make_params(m_b=6, m_r=2, m_t=5),
        make_params(rho_s=1.0, rho_r=1.0),
        make_params(rho_s=10.0, rho_r=1000.0),
        make_params(rho_s=31622.7766, rho_r=31622.7766),
        make_params(k1=0.0),
        make_params(k1=1.0),
        make_params(k1=0.2, var_ru1=2.0),
        make_params(var_bu1=0.2, var_ru1=4.0),
        make_params(var_bu1=5.0, rho_s=3.0, rho_r=300.0),
        make_params(a1=0.1, a2=0.9),
        make_params(a1=0.4, a2=0.6),
        make_params(m_b=1, m_t=2, k1=0.3),
        make_params(m_b=8, m_t=8, rho_s=50.0, rho_r=50.0),
        make_params(m_b=3, m_t=3, var_ru1=0.01),
        make_params(rho_s=2000.0, rho_r=2.0),
        # near-singular: lam_ru1 within 1e-5 of a1 * lam_su1
        make_params(m_t=1, k1=0.2500025, var_ru1=1.0),
        make_params(m_b=1, m_t=1, k1=0.24999751, var_ru1=1.0),
    ]
    assert len(base) == 20
    return base


def exp_int_ei(x: float) -> float:
    """Exponential integral Ei(x) = -exp(x) g(-x) through the closed forms' g, for x < 0 only."""
    if not x < 0.0:
        raise ValueError(f"EI_DOMAIN_INVALID: need x < 0, got {x!r}")
    t = -x
    return -math.exp(-t) * float(_scaled_e1(np.array([t]))[0])


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def oracle_write_csv(rows, handle) -> None:
    """results.write_csv as it was written with csv.writer, the oracle of the one-format-per-row writer."""
    import csv

    from fdnoma.results import CSV_COLUMNS

    def fmt(x: float) -> str:
        return f"{x:.17g}"

    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        m = row.metrics
        writer.writerow([
            fmt(row.power_db), row.scheme,
            fmt(m.rate_u1.value), fmt(m.rate_u1.std_error), fmt(m.rate_u2.value), fmt(m.rate_u2.std_error),
            fmt(m.rate_sum.value), fmt(m.outage_u1.value), fmt(m.outage_u1.std_error),
            fmt(m.outage_u2.value), fmt(m.outage_u2.std_error), fmt(m.jain_index.value),
            str(row.trials), row.kind,
        ])


def rows_to_csv_text(rows) -> str:
    buffer = io.StringIO()
    write_csv(rows, buffer)
    return buffer.getvalue()


@pytest.fixture
def baseline() -> SystemParams:
    """4-antenna setup at 20 dB on both hops."""
    return default_params(20.0)


@pytest.fixture
def fast_switching():
    """Threads switched every 10 us instead of every 5 ms, for the length of a test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
