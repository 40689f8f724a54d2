"""Instantaneous (S)INRs of the relay-assisted NOMA downlink.

The far-user symbol is sent with power share a2 and decoded first
everywhere (treating the near-user symbol, share a1, as interference);
the near user then cancels it and decodes its own symbol.  Noise is
normalized to 1, so the "+1" terms are exact.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


# Formula kernels; work elementwise on scalars or numpy arrays.

def relay_sinr(g_br, g_si, a1: float, a2: float):
    return a2 * g_br / (a1 * g_br + g_si + 1.0)


def cross_sinr(g_su1, g_ru1, a1: float, a2: float):
    return a2 * g_su1 / (a1 * g_su1 + g_ru1 + 1.0)


def near_sinr(g_su1, g_ru1, a1: float):
    return a1 * g_su1 / (g_ru1 + 1.0)


def rate_bits(gamma, out=None):
    """log2(1 + gamma); log1p keeps accuracy for vanishing SINR.  Written into `out` when given."""
    rate = np.log1p(gamma, out=out)
    rate /= LN2
    return rate
