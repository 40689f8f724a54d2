"""Antenna selection in a full-duplex cooperative NOMA downlink.

Monte Carlo link-level simulation over Rayleigh fading plus independent
closed-form evaluation of ergodic rates, outage probabilities and
fairness, built to cross-validate each other.

The names below are the ones README's library example uses; everything
else is imported from its submodule (analytic, channel, cli, config,
montecarlo, results, selection, sinr).
"""

from .analytic import outage_u1_max_u1, rate_u1_max_u1, rate_u2_max_u2
from .config import SystemParams, default_params
from .montecarlo import estimate_outage, estimate_rates

__version__ = "0.1.0"
