import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdnoma import analytic
from fdnoma.config import (
    ConfigError,
    PowerGrid,
    SweepSpec,
    SystemParams,
    db_to_linear,
    default_params,
    load_config,
    mean_gains,
    power_points,
    validate,
)

from conftest import linear_to_db, make_params


def test_baseline_parameters_are_valid():
    params = make_params(a1=0.25, a2=0.75, k1=0.01)
    assert validate(params) == params


def test_equal_power_split_rejected():
    with pytest.raises(ConfigError) as err:
        make_params(a1=0.5, a2=0.5)
    assert err.value.code == "POWER_SPLIT_INVALID"


def test_power_split_must_sum_to_one():
    with pytest.raises(ConfigError) as err:
        make_params(a1=0.2, a2=0.75)
    assert err.value.code == "POWER_SPLIT_INVALID"


def test_zero_antennas_rejected():
    with pytest.raises(ConfigError) as err:
        make_params(m_b=0)
    assert err.value.code == "ANTENNA_COUNT_INVALID"


def test_fractional_antennas_rejected():
    with pytest.raises(ConfigError) as err:
        make_params(m_r=2.5)
    assert err.value.code == "ANTENNA_COUNT_INVALID"


@pytest.mark.parametrize(
    "field,value,code",
    [
        ("var_si", 0.0, "VARIANCE_INVALID"),
        ("var_bu1", -1.0, "VARIANCE_INVALID"),
        ("rho_s", 0.0, "SNR_INVALID"),
        ("rho_r", -5.0, "SNR_INVALID"),
        ("k1", -0.01, "INTERFERENCE_INVALID"),
        ("rate1", 0.0, "RATE_INVALID"),
        ("rate2", -0.5, "RATE_INVALID"),
    ],
)
def test_invariant_violations_report_codes(field, value, code):
    with pytest.raises(ConfigError) as err:
        make_params(**{field: value})
    assert err.value.code == code


FLOAT_FIELDS = [f.name for f in fields(SystemParams) if f.name not in ("m_b", "m_r", "m_t")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_values_rejected(field, value):
    # k1 = nan used to pass and crash in the closed forms; rho_s, var_si
    # and rate2 = inf passed too.
    with pytest.raises(ConfigError) as err:
        make_params(**{field: value})
    assert err.value.code == "VALUE_NOT_FINITE"


@pytest.mark.parametrize("field", ["rate1", "rate2"])
def test_rate_with_overflowing_threshold_rejected(field):
    assert all(math.isfinite(t) for t in analytic.thresholds(make_params(**{field: 1023.0})))
    with pytest.raises(ConfigError) as err:
        make_params(**{field: 1024.0})
    assert err.value.code == "RATE_INVALID"


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


_GAINS = ("rho_s", "rho_r", "var_br", "var_bu1", "var_ru1", "var_ru2", "var_si")


# Most draws over 1e+-300 leave GAIN_RANGE, so the 1e+-50 span is kept as a branch.
_GAIN_DECADES = st.one_of(_decades(-50, 50), _decades(-300, 300))


@given(
    a1=_decades(-50, math.log10(0.4999)),
    gains=st.lists(_GAIN_DECADES, min_size=len(_GAINS), max_size=len(_GAINS)),
    k1=st.one_of(st.just(0.0), _GAIN_DECADES),
    rates=st.lists(_decades(-3, math.log10(1100)), min_size=2, max_size=2),
    antennas=st.lists(st.integers(1, 64), min_size=3, max_size=3),
    spoiled=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(FLOAT_FIELDS), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])),
    ),
)
@settings(max_examples=150, deadline=None)
def test_accepted_params_give_finite_closed_forms(a1, gains, k1, rates, antennas, spoiled):
    # Each gain parameter spans 1e-300..1e300 (+-3000 dB).  Anything validate
    # accepts gives finite closed forms; the rates may instead raise
    # NonConvergedError, which the sweep reports by name.  The near-user rate
    # is drawn at every antenna count: where its alternating sum loses its
    # digits, the rate is integrated.
    values = dict(zip(_GAINS, gains), a1=a1, a2=1.0 - a1, k1=k1, rate1=rates[0], rate2=rates[1])
    if spoiled is not None:
        values[spoiled[0]] = spoiled[1]
    candidate = replace(SystemParams(), m_b=antennas[0], m_r=antennas[1], m_t=antennas[2], **values)
    try:
        params = validate(candidate)
    except ConfigError:
        return
    metrics = [
        *analytic.thresholds(params),
        analytic.outage_u1_max_u1(params),
        analytic.outage_u1_max_u2(params),
        analytic.outage_u2_max_u1(params),
        analytic.outage_u2_max_u2(params),
    ]
    for rate in (analytic.rate_u1_max_u1, analytic.rate_u1_max_u2,
                 lambda p: analytic.rate_u2_max_u1(p).value, lambda p: analytic.rate_u2_max_u2(p).value):
        try:
            metrics.append(rate(params))
        except analytic.NonConvergedError:
            pass
    assert all(math.isfinite(v) for v in metrics), metrics


def test_mean_gain_out_of_range_rejected():
    # Every parameter is within 1e+-100, but lam_su1 = 7.7e-159 and
    # lam_ru1 = 4.9e163: rate_u1_max_u1 divided the two into a zero E1
    # argument and raised ValueError.
    values = dict(
        rho_s=3.2e-78, rho_r=2.7e77, var_br=5.7e81, var_bu1=2.4e-81,
        var_ru1=1.8e88, var_ru2=7e-26, var_si=3e54,
    )
    with pytest.raises(ConfigError) as err:
        make_params(**values)
    assert err.value.code == "GAIN_OUT_OF_RANGE"


@pytest.mark.parametrize("gain", [1e-100, 1e100])
def test_mean_gains_at_range_ends_accepted(gain):
    params = make_params(
        rho_s=1.0, rho_r=1.0, var_br=gain, var_bu1=gain, var_ru1=gain, var_ru2=gain, var_si=gain, k1=1.0
    )
    assert set(vars(mean_gains(params)).values()) == {gain}
    with pytest.raises(ConfigError) as err:
        make_params(rho_s=1.0, var_br=gain * 10.0 if gain > 1.0 else gain / 10.0)
    assert err.value.code == "GAIN_OUT_OF_RANGE"


def test_zero_interference_gain_allowed_only_with_k1_zero():
    assert mean_gains(make_params(k1=0.0)).lam_ru1 == 0.0
    # a positive k1 whose mean gain underflows to 0 is out of range
    with pytest.raises(ConfigError) as err:
        make_params(k1=1e-300, var_ru1=1e-300)
    assert err.value.code == "GAIN_OUT_OF_RANGE"


def test_validate_is_idempotent(baseline):
    assert validate(validate(baseline)) == baseline


def test_mean_gain_products():
    params = make_params(rho_s=100.0, rho_r=100.0, var_bu1=1.0, var_ru1=1.0, k1=0.01, var_si=0.3)
    gains = mean_gains(params)
    assert gains.lam_su1 == 100.0
    assert gains.lam_ru1 == pytest.approx(1.0)
    assert gains.lam_si == pytest.approx(30.0)
    assert gains.lam_br == 100.0
    assert gains.lam_ru2 == 100.0


def test_zero_interference_allows_zero_mean():
    gains = mean_gains(make_params(k1=0.0))
    assert gains.lam_ru1 == 0.0


@given(scale_exp=st.integers(min_value=-20, max_value=20))
@settings(max_examples=30, deadline=None)
def test_mean_gains_scale_with_source_power(scale_exp):
    # powers of two scale exactly in binary floating point
    c = 2.0**scale_exp
    params = make_params()
    scaled = validate(replace(params, rho_s=params.rho_s * c))
    base, moved = mean_gains(params), mean_gains(scaled)
    assert moved.lam_br == base.lam_br * c
    assert moved.lam_su1 == base.lam_su1 * c
    assert moved.lam_ru1 == base.lam_ru1
    assert moved.lam_ru2 == base.lam_ru2
    assert moved.lam_si == base.lam_si


def test_db_conversions_roundtrip():
    assert db_to_linear(20.0) == pytest.approx(100.0)
    assert linear_to_db(db_to_linear(13.0)) == pytest.approx(13.0)


def test_default_params_power():
    params = default_params(30.0, relay_power_db=10.0)
    assert params.rho_s == pytest.approx(1000.0)
    assert params.rho_r == pytest.approx(10.0)


@pytest.mark.parametrize(
    "call", [lambda: db_to_linear(3100.0), lambda: default_params(3100.0), lambda: default_params(20.0, 3100.0)]
)
def test_power_beyond_the_float_range_is_a_gain_error(call):
    # 10 ** (dB / 10) overflows a float from about 3083 dB on; a 1001 dB power is already
    # out of GAIN_RANGE, and so is every power above it.
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.code == "GAIN_OUT_OF_RANGE"
    assert "3100.0 dB" in str(err.value)


def power_points_oracle(params, sweep):
    """Each point's validated parameters, validated in full one point at a time, as power_points once did."""
    for power_db in sweep.power_db:
        relay_db = power_db if sweep.relay_power_db is None else sweep.relay_power_db
        yield validate(replace(params, rho_s=db_to_linear(power_db), rho_r=db_to_linear(relay_db)))


def raised(call):
    try:
        return call()
    except ConfigError as exc:
        return exc.code, str(exc)


@given(
    # Beyond +-1000 dB a mean gain leaves GAIN_RANGE, from -3240 dB the power is 0 and
    # from 3083 dB it overflows.
    power_db=st.lists(st.floats(-4000.0, 4000.0) | st.sampled_from([math.inf, -math.inf]),
                      min_size=1, max_size=6, unique=True),
    relay_db=st.none() | st.floats(-4000.0, 4000.0),
    spoiled=st.sampled_from([{}, {"var_br": -1.0}, {"a1": 0.6, "a2": 0.4}, {"k1": -1.0}, {"rate2": 0.0},
                             {"var_si": math.inf}, {"m_r": 0}, {"var_bu1": 1e-120}]),
)
@settings(max_examples=150, deadline=None)
def test_power_points_raise_what_validating_each_point_raises(power_db, relay_db, spoiled):
    # The grid is validated once: the first point in full, the others by the checks that read
    # rho_s and rho_r.  The first bad point must raise the ConfigError that validating every
    # point in full gives, and a good grid must give the same parameter sets.
    params = replace(SystemParams(), **spoiled)
    sweep = SweepSpec(power_db=tuple(power_db), schemes=("max_u1",), trials=1, seed=1, relay_power_db=relay_db)
    assert raised(lambda: list(power_points(params, sweep))) == raised(lambda: list(power_points_oracle(params, sweep)))


def test_power_points_validate_the_fixed_fields_once(monkeypatch):
    # A 601-point grid runs validate once, at its first point, and builds one SystemParams
    # there; each later point runs only the checks that read its powers.
    from fdnoma import config

    params = default_params()
    calls = {"validate": 0, "replace": 0}

    def counted(name):
        original = getattr(config, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(config, name, wrapper)

    for name in calls:
        counted(name)
    sweep = SweepSpec(power_db=tuple(i / 10.0 for i in range(601)), schemes=("max_u1",), trials=1, seed=1)
    grid = power_points(params, sweep)
    assert calls == {"validate": 1, "replace": 1}
    assert len(grid) == 601 and grid.rho_s[600] == db_to_linear(60.0)
    assert grid[600] == replace(params, rho_s=db_to_linear(60.0), rho_r=db_to_linear(60.0))


def test_power_grid_slice_is_the_grid_of_its_points():
    grid = power_points(default_params(), SweepSpec(power_db=(0.0, 10.0, 20.0, 30.0), schemes=("max_u1",),
                                                    relay_power_db=5.0))
    part = grid[1:3]
    assert isinstance(part, PowerGrid) and part.params == grid.params
    assert (part.power_db, part.rho_s, part.rho_r) == ((10.0, 20.0), grid.rho_s[1:3], grid.rho_r[1:3])
    assert list(part) == list(grid)[1:3]


class TestSweepSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            SweepSpec(power_db=(), schemes=("max_u1",))

    def test_rejects_empty_schemes(self):
        with pytest.raises(ConfigError):
            SweepSpec(power_db=(0.0,), schemes=())

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            SweepSpec(power_db=(0.0,), schemes=("max_u1",), trials=0)

    def test_rejects_repeated_scheme(self):
        # One statistics entry per scheme name: a repeated scheme would count
        # every block twice and shrink its standard errors by sqrt(2).
        with pytest.raises(ConfigError, match="max_u1") as info:
            SweepSpec(power_db=(0.0,), schemes=("max_u1", "random", "max_u1"))
        assert info.value.code == "SWEEP_SCHEME_DUPLICATE"

    @pytest.mark.parametrize("grid", [(10.0, 0.0, 10.0), (0.0, -0.0)])
    def test_rejects_repeated_power_point(self, grid):
        # A repeated point would write two rows under one (power_db, scheme, kind)
        # key; -0 dB and 0 dB are one operating point.
        with pytest.raises(ConfigError, match="listed more than once") as info:
            SweepSpec(power_db=grid, schemes=("max_u1",))
        assert info.value.code == "SWEEP_POWER_DUPLICATE"

    def test_accepts_relay_override(self):
        spec = SweepSpec(power_db=(0.0, 10.0), schemes=("max_u1",), relay_power_db=5.0)
        assert spec.relay_power_db == 5.0


CONFIG_TEXT = """\
# system geometry
m_b = 4
m_r = 4
m_t = 2

a1 = 0.25
a2 = 0.75

rho_s = 20     # dB
rho_r = 10     # dB

var_br = 1.0
var_bu1 = 1.0
var_ru1 = 1.0
var_ru2 = 2.0
var_si = 0.3
k1 = 0.01

rate1 = 0.5
rate2 = 0.5
"""


def test_load_config_parses_and_converts_db(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(CONFIG_TEXT)
    params = load_config(path)
    assert params.m_t == 2
    assert params.rho_s == pytest.approx(100.0)
    assert params.rho_r == pytest.approx(10.0)
    assert params.var_ru2 == 2.0


def test_load_config_partial_uses_defaults(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("rho_s = 30\nrho_r = 30\n")
    params = load_config(path)
    assert params.rho_s == pytest.approx(1000.0)
    assert params.m_b == 4
    assert params.a1 == 0.25


@pytest.mark.parametrize(
    "text,code",
    [
        ("bogus = 1\n", "CONFIG_KEY_UNKNOWN"),
        ("m_b = 4\nm_b = 2\n", "CONFIG_KEY_DUPLICATE"),
        ("m_b 4\n", "CONFIG_SYNTAX_INVALID"),
        ("m_b = four\n", "CONFIG_VALUE_INVALID"),
        ("a1 = 0.5\na2 = 0.5\n", "POWER_SPLIT_INVALID"),
        ("k1 = nan\n", "VALUE_NOT_FINITE"),
        ("var_si = inf\n", "VALUE_NOT_FINITE"),
        ("rho_s = 4000\n", "CONFIG_VALUE_INVALID"),
    ],
)
def test_load_config_errors(tmp_path, text, code):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.code == code


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "absent.cfg")
    assert err.value.code == "CONFIG_FILE_UNREADABLE"


def test_params_are_immutable(baseline):
    with pytest.raises(Exception):
        baseline.a1 = 0.3
