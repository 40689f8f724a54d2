"""Parameter set for the FD cooperative NOMA antenna-selection study.

All powers are linear SNRs (transmit power over unit noise variance);
channel variances are direct unitless inputs (no path-loss model).
Every SystemParams is valid: it is checked where it is made (validate, from
__post_init__), and a power grid checks only its points' powers (check_powers).
A SweepSpec is valid too: its grid, its scheme ids (SCHEMES, check_scheme),
its metric families (KNOWN_METRICS, check_metrics), trials and seed are
checked as it is made, and these are the one copy of each rule.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple


class ConfigError(ValueError):
    """Invalid parameter set or config file. ``code`` is a stable identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:  # from about 3083 dB on
        raise ConfigError("GAIN_OUT_OF_RANGE", f"{db!r} dB overflows a float, and every mean gain "
                          f"must lie in [{GAIN_RANGE[0]:g}, {GAIN_RANGE[1]:g}]") from None


@dataclass(frozen=True)
class SystemParams:
    """Scalar model constants.

    m_b / m_r / m_t: transmit antennas at the base station, receive and
    transmit antennas at the relay.  a1/a2: power split between the near
    and far user (a1 + a2 = 1, a1 < a2).  rho_s/rho_r: linear transmit
    SNRs of the base station and relay.  var_*: channel variances per
    link; var_si is the residual self-interference variance after
    cancellation.  k1 scales the inter-user interference channel variance.
    rate1/rate2: target rates in bits/s/Hz used for outage thresholds.
    """

    m_b: int = 4
    m_r: int = 4
    m_t: int = 4
    a1: float = 0.25
    a2: float = 0.75
    rho_s: float = 100.0
    rho_r: float = 100.0
    var_br: float = 1.0
    var_bu1: float = 1.0
    var_ru1: float = 1.0
    var_ru2: float = 1.0
    var_si: float = 0.3
    k1: float = 0.01
    rate1: float = 0.5
    rate2: float = 0.5

    def __post_init__(self):
        validate(self)


class MeanGains(NamedTuple):
    """Mean of the exponential per-antenna power gain of each link group.

    lam_ru1 folds the inter-user interference strength k1 into the
    effective variance (the interference channel is drawn with variance
    k1 * var_ru1, so the mean received gain is rho_r * k1 * var_ru1).
    """

    lam_br: float
    lam_su1: float
    lam_ru1: float
    lam_ru2: float
    lam_si: float


# The paper's six antenna-selection schemes, implemented in selection.
SCHEMES = (
    "max_u1",
    "max_u1_analytic",
    "max_u2_exhaustive",
    "max_u2_decoupled",
    "optimum_sumrate",
    "random",
)

KNOWN_METRICS = ("rates", "outage", "jain")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: power grid, schemes, metrics, trials, seed.

    power_db applies to both rho_s and rho_r unless relay_power_db fixes
    the relay power at every point.
    """

    power_db: tuple[float, ...]
    schemes: tuple[str, ...]
    metrics: tuple[str, ...] = KNOWN_METRICS
    trials: int = 1_000_000
    seed: int = 1
    relay_power_db: float | None = None

    def __post_init__(self):
        if len(self.power_db) == 0:
            raise ConfigError("SWEEP_EMPTY", "power grid must be non-empty")
        # A repeated point would repeat its rows under one (power_db, scheme, kind) key.
        # Counted by hashing: a grid may hold up to a million points.
        repeated = sorted(p for p, n in Counter(self.power_db).items() if n > 1)
        if repeated:
            raise ConfigError(
                "SWEEP_POWER_DUPLICATE",
                f"power point listed more than once: {', '.join(map(str, repeated))} dB",
            )
        if len(self.schemes) == 0:
            raise ConfigError("SWEEP_EMPTY", "scheme list must be non-empty")
        # A repeated scheme would only repeat its rows.
        repeated = sorted({s for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise ConfigError(
                "SWEEP_SCHEME_DUPLICATE", f"scheme listed more than once: {', '.join(repeated)}"
            )
        for scheme in self.schemes:
            check_scheme(scheme)
        check_metrics(self.metrics)
        check_run(self.trials, self.seed)


def check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ConfigError("SCHEME_UNKNOWN", f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}")


def check_metrics(metrics: tuple[str, ...]) -> None:
    if len(metrics) == 0:
        raise ConfigError("SWEEP_EMPTY", "metric list must be non-empty")
    unknown = [m for m in metrics if m not in KNOWN_METRICS]
    if unknown:
        raise ConfigError("SWEEP_METRIC_UNKNOWN", f"unknown metric {unknown[0]!r}; known: {', '.join(KNOWN_METRICS)}")


def check_run(trials: int, seed: int) -> None:
    """A simulation needs at least one trial and a seed numpy accepts (>= 0)."""
    if trials < 1:
        raise ConfigError("TRIALS_INVALID", f"trial count must be >= 1, got {trials!r}")
    if seed < 0:
        raise ConfigError("SEED_INVALID", f"seed must be >= 0, got {seed!r}")


_POWER_SPLIT_TOL = 1e-12
_LN2 = math.log(2.0)

# Bounds on each nonzero mean power gain (mean_gains).  The closed forms
# multiply and divide pairs of gains; beyond these bounds such products
# leave the float range (an underflowed ratio made rate_u1_max_u1 raise).
GAIN_RANGE = (1e-100, 1e100)


def validate(params: SystemParams) -> SystemParams:
    """Check every invariant; return the parameters unchanged if all hold.

    Raises ConfigError naming the first violated invariant; the powers come last, as their
    gains read the other fields.  SystemParams.__post_init__ is its one caller in the package.
    """
    for field in fields(params):
        if field.name not in ("m_b", "m_r", "m_t", "rho_s", "rho_r") and not math.isfinite(getattr(params, field.name)):
            raise ConfigError("VALUE_NOT_FINITE", f"{field.name} must be finite, got {getattr(params, field.name)!r}")
    if abs(params.a1 + params.a2 - 1.0) > _POWER_SPLIT_TOL:
        raise ConfigError("POWER_SPLIT_INVALID", f"a1 + a2 must equal 1, got {params.a1 + params.a2!r}")
    if not (0.0 < params.a1 < params.a2):
        raise ConfigError("POWER_SPLIT_INVALID", f"need 0 < a1 < a2, got a1={params.a1!r}, a2={params.a2!r}")
    for name in ("m_b", "m_r", "m_t"):
        count = getattr(params, name)
        if type(count) is not int or count < 1:  # a bool is an int, but no count
            raise ConfigError("ANTENNA_COUNT_INVALID", f"{name} must be a positive integer, got {count!r}")
    for name in ("var_br", "var_bu1", "var_ru1", "var_ru2", "var_si"):
        if not getattr(params, name) > 0.0:
            raise ConfigError("VARIANCE_INVALID", f"{name} must be > 0, got {getattr(params, name)!r}")
    if params.k1 < 0.0:
        raise ConfigError("INTERFERENCE_INVALID", f"k1 must be >= 0, got {params.k1!r}")
    for name in ("rate1", "rate2"):
        # 2^rate - 1, the SINR threshold, overflows a float from 1024 on.
        if not 0.0 < getattr(params, name) < 1024.0:
            raise ConfigError("RATE_INVALID", f"{name} must be in (0, 1024), got {getattr(params, name)!r}")
    check_powers(params, params.rho_s, params.rho_r)
    return params


def check_powers(params: SystemParams, rho_s: float, rho_r: float) -> None:
    """validate's checks that read the powers, of params' other fields at rho_s and rho_r: each
    power finite and > 0, and each mean gain in GAIN_RANGE."""
    for name, value in (("rho_s", rho_s), ("rho_r", rho_r)):
        if not math.isfinite(value):
            raise ConfigError("VALUE_NOT_FINITE", f"{name} must be finite, got {value!r}")
        if not value > 0.0:
            raise ConfigError("SNR_INVALID", f"{name} must be > 0, got {value!r}")
    low, high = GAIN_RANGE
    for name, gain in zip(MeanGains._fields, gains_at(params, rho_s, rho_r)):
        # k1 = 0 switches the inter-user interference off: lam_ru1 is 0 then.
        if not low <= gain <= high and not (name == "lam_ru1" and params.k1 == 0.0):
            raise ConfigError("GAIN_OUT_OF_RANGE", f"mean gain {name} = {gain!r} is outside [{low:g}, {high:g}]")


def mean_gains(params: SystemParams) -> MeanGains:
    """Mean per-antenna power gains implied by the parameter set."""
    return gains_at(params, params.rho_s, params.rho_r)


def gains_at(params: SystemParams, rho_s, rho_r) -> MeanGains:
    """The mean gains of params at the powers rho_s and rho_r, floats or arrays alike."""
    return MeanGains(rho_s * params.var_br, rho_s * params.var_bu1, rho_r * params.k1 * params.var_ru1,
                     rho_r * params.var_ru2, rho_r * params.var_si)


def thresholds(params: SystemParams) -> tuple[float, float]:
    """SINR thresholds 2^rate - 1 for the two target rates."""
    return math.expm1(params.rate1 * _LN2), math.expm1(params.rate2 * _LN2)


def default_params(power_db: float = 20.0, relay_power_db: float | None = None) -> SystemParams:
    """Baseline 4-antenna setup with both powers set from a dB value."""
    relay_db = power_db if relay_power_db is None else relay_power_db
    return SystemParams(rho_s=db_to_linear(power_db), rho_r=db_to_linear(relay_db))


class PowerGrid(Sequence):
    """A sweep's power grid over one parameter set: each point's dB value and linear powers.

    A point's SystemParams is made only when indexed, so no grid holds one per point; a slice
    is the PowerGrid of its points.  Only this module makes one, and each of its points is valid.
    """

    def __init__(self, params: SystemParams, power_db, rho_s: list[float], rho_r: list[float]):
        self.params, self.power_db, self.rho_s, self.rho_r = params, power_db, rho_s, rho_r

    @classmethod
    def at(cls, params: SystemParams) -> PowerGrid:
        """The one-point grid at params' own powers, which have no dB value here (None)."""
        return cls(params, (None,), [params.rho_s], [params.rho_r])

    def __len__(self) -> int:
        return len(self.power_db)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PowerGrid(self.params, self.power_db[index], self.rho_s[index], self.rho_r[index])
        return replace(self.params, rho_s=self.rho_s[index], rho_r=self.rho_r[index])


def power_points(params: SystemParams, sweep: SweepSpec) -> PowerGrid:
    """The sweep's power grid over params, every point checked before it returns.

    params is valid, and a point differs from it only in its powers, so each point runs only
    check_powers: the first bad point raises the ConfigError that making its SystemParams gives.
    """
    rho_s, rho_r = [], []
    for source_db in sweep.power_db:
        rho_s.append(db_to_linear(source_db))
        rho_r.append(rho_s[-1] if sweep.relay_power_db is None else db_to_linear(sweep.relay_power_db))
        check_powers(params, rho_s[-1], rho_r[-1])
    return PowerGrid(params, sweep.power_db, rho_s, rho_r)


# Config files are flat "key = value" lines with '#' comments.  Keys match
# SystemParams field names exactly; rho_s and rho_r are given in dB and
# converted to linear at load.
_INT_KEYS = {"m_b", "m_r", "m_t"}
_DB_KEYS = {"rho_s", "rho_r"}
_ALL_KEYS = {f.name for f in fields(SystemParams)}


def load_config(path: str | Path) -> SystemParams:
    """Parse a flat key/value config file into SystemParams; an invalid set raises as it is made."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("CONFIG_FILE_UNREADABLE", f"{path}: {exc}") from exc

    values: dict[str, float | int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                "CONFIG_SYNTAX_INVALID", f"{path}:{lineno}: expected 'key = value'"
            )
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _ALL_KEYS:
            raise ConfigError("CONFIG_KEY_UNKNOWN", f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError("CONFIG_KEY_DUPLICATE", f"{path}:{lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value_text)
            elif key in _DB_KEYS:
                values[key] = db_to_linear(float(value_text))
            else:
                values[key] = float(value_text)
        except ValueError as exc:  # db_to_linear's ConfigError is one too
            raise ConfigError(
                "CONFIG_VALUE_INVALID", f"{path}:{lineno}: bad value for {key!r}: {value_text!r}"
            ) from exc

    return SystemParams(**values)
