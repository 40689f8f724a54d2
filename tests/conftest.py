import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdnoma.analytic import _scaled_e1
from fdnoma.channel import GainBatch
from fdnoma.config import SystemParams, default_params, validate
from fdnoma.montecarlo import write_csv
from fdnoma.selection import _TILE_GRID_BYTES


def make_params(**overrides) -> SystemParams:
    """Baseline parameter set with selective overrides, validated."""
    from dataclasses import replace

    return validate(replace(SystemParams(), **overrides))


def batch_from(g_br, g_su1, g_ru1, g_ru2, g_si) -> GainBatch:
    """A one-realization batch from per-antenna gains (no trial axis)."""
    arrays = [np.asarray(g, dtype=float)[None] for g in (g_br, g_su1, g_ru1, g_ru2, g_si)]
    return GainBatch(*arrays, count=1)


def tile_rows(params: SystemParams) -> int:
    """Rows in one tile of the joint searches' far-user grid."""
    return _TILE_GRID_BYTES // (8 * params.m_b * params.m_r * params.m_t)


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this fdnoma; fails the test on a nonzero exit.

    For checks of what a process loads: this one has imported everything the
    other tests use.
    """
    import fdnoma

    src = str(Path(fdnoma.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def exp_int_ei(x: float) -> float:
    """Exponential integral Ei(x) = -exp(x) g(-x) through the closed forms' g, for x < 0 only."""
    if not x < 0.0:
        raise ValueError(f"EI_DOMAIN_INVALID: need x < 0, got {x!r}")
    t = -x
    return -math.exp(-t) * _scaled_e1(t)


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


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
