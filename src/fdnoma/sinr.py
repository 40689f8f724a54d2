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


# Formula kernels; work elementwise on scalars or numpy arrays.  Given `out`
# and `scratch` arrays, the numerator is formed in `out` and the denominator
# in `scratch`, with the same float operations as without them.

def relay_sinr(g_br, g_si, a1: float, a2: float, out=None, scratch=None):
    """(a2 g_br) / ((a1 g_br + g_si) + 1); `scratch` must not hold g_br or g_si."""
    den = np.multiply(a1, g_br, out=scratch)
    den = np.add(den, g_si, out=scratch)
    den = np.add(den, 1.0, out=scratch)
    return np.divide(np.multiply(a2, g_br, out=out), den, out=out)


def cross_sinr(g_su1, g_ru1, a1: float, a2: float, out=None, scratch=None):
    """(a2 g_su1) / ((a1 g_su1 + g_ru1) + 1): relay_sinr's formula at the near user."""
    return relay_sinr(g_su1, g_ru1, a1, a2, out, scratch)


def near_sinr(g_su1, g_ru1, a1: float, out=None, scratch=None):
    """(a1 g_su1) / (g_ru1 + 1); `scratch` may be g_ru1 itself, which then holds g_ru1 + 1."""
    den = np.add(g_ru1, 1.0, out=scratch)
    return np.divide(np.multiply(a1, g_su1, out=out), den, out=out)


def rate_bits(gamma, out=None):
    """log2(1 + gamma); log1p keeps accuracy for vanishing SINR.  Written into `out` when given."""
    rate = np.log1p(gamma, out=out)
    rate /= LN2
    return rate
