import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdnoma import analytic, montecarlo
from fdnoma.analytic import (
    NonConvergedError,
    cdf_gamma1_max_u1,
    cdf_gamma1_max_u2,
    cdf_gamma2_max_u1,
    cdf_gamma2_max_u2,
    outage_u1_max_u1,
    outage_u1_max_u2,
    outage_u2_max_u1,
    outage_u2_max_u2,
    rate_from_cdf,
    rate_u1_max_u1,
    rate_u1_max_u2,
    rate_u2_max_u1,
    rate_u2_max_u2,
    sinr_cap,
    thresholds,
    zeta,
)
from fdnoma.config import SweepSpec, default_params, mean_gains, power_points
from fdnoma.results import jain_index

from conftest import (
    MP_LAW_DPS,
    criterion_2_grid,
    ORACLE_FAR_LINKS,
    _clamp_probability,
    exp_int_ei,
    make_params,
    mp_far_user_cdf,
    mp_link_cdf,
    mp_outages,
    near_kernel_alphas,
    oracle_breakpoints,
    oracle_far_user_rates,
    oracle_links,
    oracle_rate_u1_max_u1,
    oracle_rate_u1_max_u2,
    run_fresh,
)


def assert_near_mpmath(value: float, oracle: float, rel: float = 1e-13) -> None:
    """value within rel of oracle, relative all the way down to 1e-290."""
    assert abs(value - oracle) <= rel * abs(oracle) + 1e-290, (value, oracle)


class TestExponentialIntegral:
    def test_frozen_value_at_minus_one(self):
        # oracle: 40-digit quadrature of the defining integral
        assert exp_int_ei(-1.0) == pytest.approx(-0.21938393439552027, rel=1e-13)

    def test_decays_to_zero_from_below(self):
        value = exp_int_ei(-50.0)
        assert -1e-20 < value < 0.0

    def test_derivative_identity(self):
        # d/dx Ei(x) = exp(x)/x, central finite difference at x = -2
        x, h = -2.0, 1e-4
        numerical = (exp_int_ei(x + h) - exp_int_ei(x - h)) / (2.0 * h)
        assert numerical == pytest.approx(math.exp(x) / x, rel=1e-6)

    @pytest.mark.parametrize("x", [0.0, 1.0, 1e-9])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            exp_int_ei(x)

    def test_against_quadrature_oracle(self):
        # Ei(-t) = -integral_t^inf exp(-u)/u du
        import mpmath as mp

        mp.mp.dps = 30
        rng = np.random.default_rng(8)
        for t in rng.uniform(0.01, 40.0, size=12):
            oracle = -float(mp.quad(lambda u: mp.e ** (-u) / u, [t, mp.inf]))
            assert exp_int_ei(-float(t)) == pytest.approx(oracle, rel=1e-12)

    def test_series_and_fraction_agree_at_crossover(self):
        left = exp_int_ei(-0.9999999)
        right = exp_int_ei(-1.0000001)
        assert left == pytest.approx(right, rel=1e-6)  # continuity across the switch
        for t in (0.999999, 1.000001):
            import mpmath as mp

            mp.mp.dps = 30
            assert exp_int_ei(-t) == pytest.approx(float(mp.ei(-t)), rel=1e-13)


@pytest.mark.parametrize("t", [9.9e9, 1.0000001e10, 1.106e11, 7.74e15, 10**19.5, 1e150])
def test_scaled_e1_large_argument(t):
    # From about 1e11 the continued fraction could stall one ulp short of
    # its stop and raise NonConvergedError; above 1e10 the asymptotic series
    # is used.
    import mpmath as mp

    mp.mp.dps = 40
    oracle = float(mp.e1(t) * mp.exp(t))
    assert analytic._scaled_e1(np.array([t]))[0] == pytest.approx(oracle, rel=4e-16)


def test_alternating_binomial_identity():
    # M * sum_p (-1)^p C(M-1, p) / (p+1) = 1 for the antenna orders in range
    for m in range(1, 17):
        total = m * math.fsum((-1.0) ** p * math.comb(m - 1, p) / (p + 1) for p in range(m))
        assert abs(total - 1.0) <= 1e-12, f"order {m}"


class TestRateFromCdf:
    def test_degenerate_at_zero(self):
        result = rate_from_cdf(lambda x: 1.0, upper=math.inf)
        assert result.value == 0.0

    def test_unit_mean_exponential(self):
        # (1/ln 2) e E1(1), frozen from a 40-digit oracle
        result = rate_from_cdf(lambda x: -math.expm1(-x), upper=math.inf)
        assert result.value == pytest.approx(0.86034738227088595, rel=1e-9)
        assert result.abs_error_bound <= max(1e-9, 1e-8 * result.value)
        assert result.evaluations > 0

    def test_closed_form_agreement(self, baseline):
        quadrature = rate_from_cdf(lambda x: cdf_gamma1_max_u1(x, baseline))
        assert rate_u1_max_u1(baseline) == pytest.approx(quadrature.value, rel=1e-8)

    def test_non_converged_reported(self):
        # a cdf quadrature cannot resolve with a one-interval budget
        wiggly = lambda x: min(1.0, (math.sin(37.0 * x) + 1.0) / 2.0 * min(x, 1.0))
        with pytest.raises(NonConvergedError):
            rate_from_cdf(wiggly, upper=10.0, rel_tol=1e-12, abs_tol=1e-13, limit=1)


PARAM_GRID = [
    make_params(),
    make_params(m_b=1, m_r=1, m_t=1),
    make_params(m_b=2, m_r=3, m_t=4, rho_s=10.0, rho_r=1000.0),
    make_params(k1=1.0, var_ru1=0.5),
    make_params(rho_s=1.0, rho_r=1.0),
    make_params(rho_s=31622.7766, rho_r=31622.7766),  # 45 dB
    make_params(var_br=0.2, var_bu1=3.0, var_ru2=0.7, var_si=1.5),
]


@pytest.mark.parametrize("params", PARAM_GRID)
def test_near_user_closed_forms_match_quadrature(params):
    for closed, cdf in (
        (rate_u1_max_u1, cdf_gamma1_max_u1),
        (rate_u1_max_u2, cdf_gamma1_max_u2),
    ):
        quadrature = rate_from_cdf(lambda x: cdf(x, params), rel_tol=1e-10, abs_tol=1e-12)
        assert closed(params) == pytest.approx(quadrature.value, rel=1e-8)


def test_near_singular_configuration():
    # interference mean within 1e-5 of a1 * direct mean trips the kernel
    # close to its removable singularity
    params = make_params(m_t=1, k1=0.2500025, var_ru1=1.0, rho_s=100.0, rho_r=100.0)
    for closed, cdf in (
        (rate_u1_max_u1, cdf_gamma1_max_u1),
        (rate_u1_max_u2, cdf_gamma1_max_u2),
    ):
        quadrature = rate_from_cdf(lambda x: cdf(x, params), rel_tol=1e-10, abs_tol=1e-12)
        assert closed(params) == pytest.approx(quadrature.value, rel=1e-8)


def test_exactly_singular_configuration_falls_back():
    params = make_params(m_b=1, m_t=1, k1=0.25, var_ru1=1.0)
    quadrature = rate_from_cdf(lambda x: cdf_gamma1_max_u1(x, params), rel_tol=1e-10, abs_tol=1e-12)
    assert rate_u1_max_u1(params) == pytest.approx(quadrature.value, rel=1e-8)


def test_singular_kernel_loads_no_scipy():
    # At alpha = 1 the kernel is closed (K1 and its first-order term), so the
    # closed form of a fresh process loads no scipy; rate_from_cdf, the tests'
    # reference quadrature, does.
    proc = run_fresh(
        "import sys\n"
        "from dataclasses import replace\n"
        "from fdnoma.analytic import cdf_gamma1_max_u1, rate_from_cdf, rate_u1_max_u1\n"
        "from fdnoma.config import SystemParams, validate\n"
        "params = validate(replace(SystemParams(), m_b=1, m_t=1, k1=0.25, var_ru1=1.0))\n"
        "closed = rate_u1_max_u1(params)\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        "quadrature = rate_from_cdf(lambda x: cdf_gamma1_max_u1(x, params), rel_tol=1e-10, abs_tol=1e-12)\n"
        "print(repr(closed), repr(quadrature.value))\n"
    )
    closed, quadrature = (float(v) for v in proc.stdout.split())
    assert closed == pytest.approx(quadrature, rel=1e-8)


@pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9, 9e-7, -9e-7])
@pytest.mark.parametrize("beta", [1.0, 100.0, 101.0, 1e3, 1e6])
def test_rate_kernel_near_its_singularity_matches_mpmath(beta, offset):
    # Within 1e-6 of alpha = 1 the kernel is K1 + (alpha - 1) K1'; scipy's quad
    # over [0, inf), the fallback it replaces, read 0 at beta = 1e6.
    import mpmath as mp

    alpha = 1.0 + offset
    with mp.workdps(40):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        g = lambda t: mp.exp(t) * mp.e1(t)
        oracle = float(1 - b * g(b) if a == 1 else (g(b / a) - g(b)) / (a - 1))
    assert analytic._rate_kernels(np.array([alpha]), np.array([beta]))[0][0] == pytest.approx(oracle, rel=1e-12)


@given(
    antennas=st.lists(st.integers(1, 6), min_size=3, max_size=3),
    a1=st.floats(0.01, 0.49).filter(lambda a1: a1 != 0.25),
    k1=st.one_of(st.just(0.0), st.floats(1e-4, 2.0)),
    variances=st.lists(st.floats(0.05, 20.0), min_size=5, max_size=5),
    relay_db=st.one_of(st.none(), st.floats(-10.0, 50.0)),
)
@settings(max_examples=60, deadline=None)
@example(antennas=[6, 1, 6], a1=0.13891351700586835, k1=0.0, variances=[18.5, 1.0, 1.0, 0.75, 1.0], relay_db=None)
def test_analytic_sweep_equals_scalar_oracle(antennas, a1, k1, variances, relay_db):
    # Every sweep row equals the one-set closed forms, bit for bit.  The
    # near-user rate equals the one-set oracle in conftest bit for bit, and
    # rate_u2 comes from the oracle's first partitions.  The links of the laws
    # are the oracle's, and the outages are within 1e-13 relative of 450-digit
    # mpmath on those links: the oracle's alternating sums are accurate only
    # in absolute terms, and miss deep floors by more (the far-user one by over
    # 1e-14 at 6 antennas).  Rows with a kernel alpha within 1e-6 of 1 skip the
    # rate oracle, which falls back to scipy's quad there, and so do rows the
    # near-user rate integrates.
    m_b, m_r, m_t = antennas
    var_br, var_bu1, var_ru1, var_ru2, var_si = variances
    params = make_params(m_b=m_b, m_r=m_r, m_t=m_t, a1=a1, a2=1.0 - a1, k1=k1, var_br=var_br,
                         var_bu1=var_bu1, var_ru1=var_ru1, var_ru2=var_ru2, var_si=var_si)
    grid = (-10.0, 0.0, 7.5, 20.0, 35.0, 50.0)
    spec = SweepSpec(power_db=grid, schemes=analytic.ANALYTIC_SCHEMES, trials=1, seed=1,
                     relay_power_db=relay_db)
    rows, notes = analytic.analytic_sweep(params, spec)
    assert notes == []
    power_grid = power_points(params, spec)
    points = list(power_grid)
    one_set = {
        "max_u1": (oracle_rate_u1_max_u1, rate_u1_max_u1, outage_u1_max_u1, outage_u2_max_u1),
        "max_u2": (oracle_rate_u1_max_u2, rate_u1_max_u2, outage_u1_max_u2, outage_u2_max_u2),
    }
    for scheme, rule in (("max_u1_analytic", "max_u1"), ("max_u2_decoupled", "max_u2")):
        laws = analytic.Laws(power_grid, rule)
        hi = np.full(len(points), laws.a2 / laws.a1 * (1.0 - 1e-12))
        breakpoints = laws.breakpoints(hi)
        oracle_rate, rate_u1, outage_u1, outage_u2 = one_set[rule]
        for row, (p, sweep_row) in enumerate(zip(points, [r for r in rows if r.scheme == scheme])):
            assert [(m, *(v[row] for v in means)) for m, *means in laws.links] == oracle_links(p, rule)
            inner = breakpoints[row][np.isfinite(breakpoints[row])].tolist()
            assert inner == oracle_breakpoints(p, rule, sinr_cap(p) * (1.0 - 1e-12))
            metrics = sweep_row.metrics
            r1, r2 = rate_u1(p), analytic.far_user_rates(analytic._one_set(p, rule))[0].value
            assert (metrics.rate_u1.value, metrics.rate_u2.value, metrics.rate_sum.value) == (r1, r2, r1 + r2)
            assert metrics.jain_index.value == jain_index(r1, r2)
            outages = (metrics.outage_u1.value, metrics.outage_u2.value)
            assert outages == (outage_u1(p), outage_u2(p))
            mp_values = mp_outages(p, rule)
            for value, oracle in zip(outages, mp_values):
                assert_near_mpmath(value, oracle)
            assert outages[1] == pytest.approx(mp_values[1], rel=0.0, abs=1e-14)
            (near,) = analytic.near_user_rates(analytic._one_set(p, rule))
            if near.evaluations == 0 and all(abs(alpha - 1.0) >= 1e-6 for alpha in near_kernel_alphas(p, rule)):
                assert r1 == oracle_rate(p)


class TestNearUserCdfs:
    def test_zero_at_origin(self, baseline):
        assert cdf_gamma1_max_u1(0.0, baseline) == 0.0
        assert cdf_gamma1_max_u2(0.0, baseline) == 0.0

    def test_tends_to_one(self, baseline):
        big = 1e9
        assert cdf_gamma1_max_u1(big, baseline) == pytest.approx(1.0, abs=1e-12)
        assert cdf_gamma1_max_u2(big, baseline) == pytest.approx(1.0, abs=1e-12)

    def test_single_antenna_reduction(self):
        from fdnoma.config import mean_gains

        params = make_params(m_b=1, m_r=1, m_t=1)
        gains = mean_gains(params)
        x = 1.0
        scale = params.a1 * gains.lam_su1
        expected = 1.0 - math.exp(-x / scale) / (1.0 + gains.lam_ru1 * x / scale)
        assert cdf_gamma1_max_u1(x, params) == pytest.approx(expected, rel=1e-14)
        # single-antenna selection has no gain, so both schemes coincide
        assert cdf_gamma1_max_u2(x, params) == pytest.approx(expected, rel=1e-14)

    def test_against_simulation(self, baseline):
        from fdnoma.channel import draw_batch
        from fdnoma.selection import select_batch
        from fdnoma.sinr import near_sinr

        n = 400_000
        batch = draw_batch(baseline, (1234, 0), n)
        ii, jj, kk = select_batch("max_u1_analytic", batch, baseline)
        rows = np.arange(n)
        gamma1 = near_sinr(batch.g_su1[rows, ii], batch.g_ru1[rows, kk], baseline.a1)
        for x in (1.0, 5.0, 20.0):
            target = cdf_gamma1_max_u1(x, baseline)
            se = math.sqrt(target * (1.0 - target) / n)
            empirical = float(np.mean(gamma1 <= x))
            assert abs(empirical - target) < 4.0 * se + 1e-9, f"x={x}"


class TestFarUserCdfs:
    def test_zero_at_origin(self, baseline):
        assert cdf_gamma2_max_u1(0.0, baseline) == 0.0
        assert cdf_gamma2_max_u2(0.0, baseline) == 0.0

    def test_one_at_the_cap(self, baseline):
        cap = sinr_cap(baseline)
        assert cdf_gamma2_max_u1(cap, baseline) == 1.0
        assert cdf_gamma2_max_u2(cap, baseline) == 1.0
        assert cdf_gamma2_max_u1(cap + 1.0, baseline) == 1.0

    def test_single_antenna_schemes_coincide(self):
        params = make_params(m_b=1, m_r=1, m_t=1)
        for x in (0.1, 0.5, 1.0, 2.0, 2.9):
            assert cdf_gamma2_max_u1(x, params) == pytest.approx(
                cdf_gamma2_max_u2(x, params), rel=1e-12
            )

    def test_monotone_on_grid(self, baseline):
        cap = sinr_cap(baseline)
        grid = np.linspace(0.0, cap, 1000)
        values = [cdf_gamma2_max_u1(float(x), baseline) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_against_simulation(self, baseline):
        from fdnoma.channel import draw_batch
        from fdnoma.selection import select_batch
        from fdnoma.sinr import cross_sinr, relay_sinr

        n = 400_000
        batch = draw_batch(baseline, (4321, 0), n)
        rows = np.arange(n)
        for scheme, cdf in (
            ("max_u1_analytic", cdf_gamma2_max_u1),
            ("max_u2_decoupled", cdf_gamma2_max_u2),
        ):
            ii, jj, kk = select_batch(scheme, batch, baseline)
            g12 = cross_sinr(batch.g_su1[rows, ii], batch.g_ru1[rows, kk], baseline.a1, baseline.a2)
            gr = relay_sinr(batch.g_br[rows, ii, jj], batch.g_si[rows, jj, kk], baseline.a1, baseline.a2)
            gamma2 = np.minimum(np.minimum(g12, gr), batch.g_ru2[rows, kk])
            x = 0.5
            target = cdf(x, baseline)
            se = math.sqrt(target * (1.0 - target) / n)
            empirical = float(np.mean(gamma2 <= x))
            assert abs(empirical - target) < 4.0 * se, scheme


# Oracles: the far-user survival functions as they were evaluated before the
# laws were built once per parameter set, recomputing the mean gains, the
# gain ratio and every coefficient on each call.  The built laws keep every
# float operation in the same order, so they must agree exactly.

def _oracle_ratio(x, params):
    den = params.a2 - params.a1 * x
    if den <= 0.0:
        return math.inf
    return x / den


def _oracle_sf_cross_s1(x, params, lam_su1, lam_ru1):
    r = _oracle_ratio(x, params)
    if math.isinf(r):
        return 0.0
    m_b, m_t = params.m_b, params.m_t
    terms = [
        (-1.0) ** p
        * math.comb(m_b - 1, p)
        * math.exp(-(p + 1) * r / lam_su1)
        / ((p + 1) * (1.0 + lam_ru1 * (p + 1) * r / (m_t * lam_su1)))
        for p in range(m_b)
    ]
    return m_b * math.fsum(terms)


def _oracle_sf_relay_s1(x, params, lam_br, lam_si):
    r = _oracle_ratio(x, params)
    if math.isinf(r):
        return 0.0
    m_r = params.m_r
    terms = [
        (-1.0) ** q
        * math.comb(m_r - 1, q)
        * math.exp(-(q + 1) * r / lam_br)
        / ((q + 1) * (1.0 + lam_si * (q + 1) * r / lam_br))
        for q in range(m_r)
    ]
    return m_r * math.fsum(terms)


def _oracle_sf_cross_s2(x, params, lam_su1, lam_ru1):
    r = _oracle_ratio(x, params)
    if math.isinf(r):
        return 0.0
    return math.exp(-r / lam_su1) / (1.0 + lam_ru1 * r / lam_su1)


def _oracle_sf_relay_s2(x, params, lam_br, lam_si):
    r = _oracle_ratio(x, params)
    if math.isinf(r):
        return 0.0
    m_b, m_r = params.m_b, params.m_r
    terms = [
        (-1.0) ** p
        * math.comb(m_b - 1, p)
        * math.exp(-(p + 1) * r / lam_br)
        / ((p + 1) * (1.0 + lam_si * (p + 1) * r / (m_r * lam_br)))
        for p in range(m_b)
    ]
    return m_b * math.fsum(terms)


def _oracle_sf_far_s1(x, lam_ru2):
    return math.exp(-x / lam_ru2)


def _oracle_sf_far_s2(x, params, lam_ru2):
    m_t = params.m_t
    terms = [
        (-1.0) ** q * math.comb(m_t - 1, q) * math.exp(-(q + 1) * x / lam_ru2) / (q + 1)
        for q in range(m_t)
    ]
    return m_t * math.fsum(terms)


def oracle_cdf_gamma2_max_u1(x, params):
    if x <= 0.0:
        return 0.0
    if x >= sinr_cap(params):
        return 1.0
    g = mean_gains(params)
    survival = (
        _oracle_sf_cross_s1(x, params, g.lam_su1, g.lam_ru1)
        * _oracle_sf_relay_s1(x, params, g.lam_br, g.lam_si)
        * _oracle_sf_far_s1(x, g.lam_ru2)
    )
    return _clamp_probability(1.0 - survival)


def oracle_cdf_gamma2_max_u2(x, params):
    if x <= 0.0:
        return 0.0
    if x >= sinr_cap(params):
        return 1.0
    g = mean_gains(params)
    survival = (
        _oracle_sf_cross_s2(x, params, g.lam_su1, g.lam_ru1)
        * _oracle_sf_relay_s2(x, params, g.lam_br, g.lam_si)
        * _oracle_sf_far_s2(x, params, g.lam_ru2)
    )
    return _clamp_probability(1.0 - survival)


FAR_USER_LAWS = (
    (cdf_gamma2_max_u1, oracle_cdf_gamma2_max_u1, rate_u2_max_u1, outage_u2_max_u1),
    (cdf_gamma2_max_u2, oracle_cdf_gamma2_max_u2, rate_u2_max_u2, outage_u2_max_u2),
)

ORACLE_PARAMS = {
    "4x4x4": make_params(),
    "3x5x2": make_params(m_b=3, m_r=5, m_t=2, k1=0.3),
    "1x1x1": make_params(m_b=1, m_r=1, m_t=1),
    "k1=0": make_params(k1=0.0),
    "gains 1e-100": make_params(rho_s=1.0, rho_r=1.0, var_br=1e-100, var_bu1=1e-100,
                                var_ru1=1e-100, var_ru2=1e-100, var_si=1e-100, k1=1.0),
    "gains 1e+100": make_params(rho_s=1.0, rho_r=1.0, var_br=1e100, var_bu1=1e100,
                                var_ru1=1e100, var_ru2=1e100, var_si=1e100, k1=1.0),
    "gains 1e+-100": make_params(m_b=2, m_r=3, m_t=5, rho_s=1.0, rho_r=1.0, var_br=1e100,
                                 var_bu1=1e-100, var_ru1=1e100, var_ru2=1e-100,
                                 var_si=1e-100, k1=1.0),
}


@pytest.mark.parametrize("params", ORACLE_PARAMS.values(), ids=ORACLE_PARAMS.keys())
def test_far_user_laws_equal_per_call_oracle(params):
    # The entry point at a point and the built law at a point and over an
    # array agree bit for bit, within 1e-13 relative of 450-digit mpmath on
    # the oracle's links.  The far-user rates still match scipy's quad of the
    # per-call alternating oracle, which is accurate in absolute terms.
    cap = sinr_cap(params)
    xs = [0.0, 1e-300, *(cap * k / 40 for k in range(1, 40)), math.nextafter(cap, 0.0),
          cap * (1.0 - 1e-12), cap, cap + 1.0]
    for (cdf, oracle_cdf, rate, outage), rule in zip(FAR_USER_LAWS, ("max_u1", "max_u2")):
        law = analytic.far_user_cdf(params, rule)  # built once, evaluated at every x
        values = [law(x) for x in xs]
        assert law(np.array(xs)).tolist() == values, rule
        for x, value in zip(xs, values):
            assert cdf(x, params) == value, (cdf.__name__, x)
            assert_near_mpmath(value, mp_far_user_cdf(params, rule, x))
        reference = rate_from_cdf(lambda x: oracle_cdf(x, params), upper=cap)
        result = rate(params)
        # QUADPACK reads 0 where the law is narrower than its first nodes (the
        # 1e-100 gains); the rates there are below 1e-98, hence the abs floor.
        assert result.value == pytest.approx(reference.value, rel=1e-12, abs=1e-15), rate.__name__
        assert result.abs_error_bound <= max(1e-9, 1e-8 * result.value), rate.__name__
        assert_near_mpmath(outage(params), mp_outages(params, rule)[1])


# The alpha = 1 kernel of test_cli's SINGULAR_CONFIG: 0 dB, var_bu1 = 4e-6, k1 = 1e-6.
SINGULAR_PARAMS = make_params(rho_s=1.0, rho_r=1.0, k1=1e-6, var_bu1=4e-6)
NEAR_QUADRATURE_PARAMS = {
    **{f"criterion 2 #{i}": params for i, params in enumerate(criterion_2_grid())},
    "alpha = 1": SINGULAR_PARAMS,
    "16x16x16": make_params(m_b=16, m_r=16, m_t=16),
}


@pytest.mark.parametrize("params", NEAR_QUADRATURE_PARAMS.values(), ids=NEAR_QUADRATURE_PARAMS.keys())
def test_near_user_quadrature_matches_scipy(params):
    # scipy's quad of the near-user distribution, split as the quadrature is.
    points = analytic.graded_points(params.a1 * mean_gains(params).lam_su1)
    for rule, cdf in (("max_u1", cdf_gamma1_max_u1), ("max_u2", cdf_gamma1_max_u2)):
        (result,) = analytic.near_user_quadratures(analytic._one_set(params, rule))
        reference = rate_from_cdf(lambda x: cdf(x, params), rel_tol=1e-10, abs_tol=1e-13, points=points)
        assert result.value == pytest.approx(reference.value, rel=1e-8), rule
        tolerance = max(analytic.QUADRATURE_ABS_TOL, analytic.QUADRATURE_REL_TOL * result.value)
        assert result.abs_error_bound <= tolerance, rule


def mp_near_user_rate(params, rule: str) -> float:
    """20-digit mpmath integral of the near link's survival over [0, inf), in bits/s/Hz.

    The survival is _link_law's recurrence, a sum of positive terms, so it
    keeps its digits at any m; 20 digits agree with 40 to 1e-21 at 24 and 64
    antennas, 0 and 50 dB, in less than half the time.
    """
    m, lam, lam_i, den = oracle_links(params, rule)[0]
    with mp.workdps(20):
        lam, lam_i, den = mp.mpf(lam), mp.mpf(lam_i), mp.mpf(den)

        def integrand(x):
            c, d, b = mp.exp(-x / lam), -mp.expm1(-x / lam), lam_i * x / den
            survival, power, rest = 0, 1, 0  # S_i, d^i and 1 - d^i at i = 0
            for i in range(1, m + 1):
                rest, power = rest + c * power, power * d
                survival = (i * b * survival + rest) / (1 + i * b)
            return survival / (1 + x)

        points = sorted({mp.mpf(1), *(lam * mp.mpf(4) ** k for k in range(-2, 4))})
        return float(mp.quad(integrand, [0, *points, mp.inf]) / mp.log(2))


@pytest.mark.parametrize("params", [make_params(), SINGULAR_PARAMS, make_params(m_b=16, m_r=16, m_t=16),
                                    make_params(rho_s=31622.7766, rho_r=31622.7766)],
                         ids=["4x4x4", "alpha = 1", "16x16x16", "45 dB"])
def test_near_user_quadrature_matches_mpmath(params):
    for rule in ("max_u1", "max_u2"):
        (result,) = analytic.near_user_quadratures(analytic._one_set(params, rule))
        oracle = mp_near_user_rate(params, rule)
        error = abs(result.value - oracle)
        assert error <= 1e-8 * oracle, rule
        assert error <= result.abs_error_bound, rule


def test_near_user_quadrature_grades_down_to_the_rate_kernel_scale():
    # At high power the near link's scale lam is far above 1, the scale of 1 / (1 + x), and a
    # partition graded only upward from lam bisected [0, lam] over and over: 4x4x4 rows took
    # (0, 20, 40, 60 dB) 84, 210, 462 (max_u2: 504) and 756 evaluations.  Graded down to 1
    # as well, no count rises, and the high-power ones fall.
    upward_only = {0.0: 84, 20.0: 210, 40.0: 462, 60.0: 756}
    grid = power_points(default_params(), SweepSpec(power_db=tuple(upward_only), schemes=("max_u1",)))
    for rule in ("max_u1", "max_u2"):
        laws = analytic.Laws(grid, rule)
        results = analytic.near_user_quadratures(laws)
        counts = dict(zip(upward_only, (result.evaluations for result in results)))
        assert all(counts[power] <= upward_only[power] for power in (0.0, 20.0)), (rule, counts)
        assert all(counts[power] < upward_only[power] for power in (40.0, 60.0)), (rule, counts)
        for result, closed in zip(results, analytic.near_user_rates(laws)):
            assert result.value == pytest.approx(closed.value, rel=analytic.QUADRATURE_REL_TOL), rule


def equal_arrays(m: int, power_db: float, **overrides):
    rho = 10.0 ** (power_db / 10.0)
    return make_params(m_b=m, m_r=m, m_t=m, rho_s=rho, rho_r=rho, **overrides)


# Parameter sets and whether the kernel sum holds their max_u1 near-user rate (it always holds
# the one-term max_u2 rate here).  At the defaults the first term's kernel has alpha = k1.
NEAR_RATE_BOUND_PARAMS = {
    **{f"{m}x{m}x{m}": (equal_arrays(m, 10.0), m <= 20) for m in (4, 8, 16, 20, 24)},
    # The kernel is g(beta) alone, and g's continued fraction is off by 52 ulps at beta = 1.156.
    "k1 = 0, beta = 1.156": (make_params(k1=0.0, rho_s=4.0 / 1.156, rho_r=4.0 / 1.156), True),
    "alpha = 1 + 9e-7, 50 dB": (equal_arrays(4, 50.0, k1=1.0 + 9e-7), True),
    # Just outside 1e-6 of alpha = 1 the kernel's subtraction loses 6e-11 here.
    "alpha = 1 + 1.01e-6": (equal_arrays(4, 10.0, k1=1.0 + 1.01e-6), False),
}


@pytest.mark.parametrize("params, kept", NEAR_RATE_BOUND_PARAMS.values(), ids=NEAR_RATE_BOUND_PARAMS.keys())
def test_near_user_rate_error_is_within_its_bound(params, kept):
    # Kept or integrated, a near-user rate is within its own error bound of mpmath (the m x m x m
    # sums err most at 10 dB).  Where the sum is kept this fixes _NEAR_BOUND_FACTOR: "k1 = 0,
    # beta = 1.156" needs 52, the m x m x m sums need up to 4, and "alpha = 1 + 9e-7" less than 1.
    for rule, sum_holds in (("max_u1", kept), ("max_u2", True)):
        (result,) = analytic.near_user_rates(analytic._one_set(params, rule))
        assert abs(result.value - mp_near_user_rate(params, rule)) <= result.abs_error_bound, rule
        assert (result.evaluations == 0) == sum_holds, rule


@pytest.mark.parametrize("m", [24, 32, 48, 64])
def test_near_user_rate_matches_mpmath_at_large_arrays(m):
    # The kernel sum had the wrong sign at 64 antennas; every one of these rows is integrated.
    for db in (0.0, 20.0, 50.0):
        params = equal_arrays(m, db)
        oracle = mp_near_user_rate(params, "max_u1")
        assert rate_u1_max_u1(params) == pytest.approx(oracle, rel=1e-8), db


def test_gauss_kronrod_rule_is_exact_on_polynomials():
    # Kronrod on x^k up to degree 31, Gauss (the odd-index abscissae) up to 19, over [-1, 1].
    xs = np.array(analytic._XGK)
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        kronrod = analytic._WGK_CENTER * (k == 0) + sum(np.array(analytic._WGK) * (xs**k + (-xs) ** k))
        assert kronrod == pytest.approx(exact, abs=1e-15), k
        if k < 20:
            gauss = sum(np.array(analytic._WG) * (xs[1::2] ** k + (-xs[1::2]) ** k))
            assert gauss == pytest.approx(exact, abs=1e-15), k


@pytest.mark.parametrize("params", ORACLE_PARAMS.values(), ids=ORACLE_PARAMS.keys())
def test_far_user_rates_raise_no_floating_point_warning(params):
    # Underflow is numpy's default "ignore"; the integrand silences overflow
    # itself, and nothing may divide by zero or make a NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for rule in ("max_u1", "max_u2"):
                (result,) = analytic.far_user_rates(analytic._one_set(params, rule))
                assert math.isfinite(result.value), rule


def mp_far_user_rate(params, rule):
    """50-digit mpmath oracle of a far-user rate, on the links' own coefficients.

    Gauss-Legendre over a partition graded by 4 toward 0 and toward the cap,
    where the gain ratio has its pole; no point depends on the parameters
    beyond the cap.  The alternating sums lose about log10 C(m, m/2) digits,
    9 at m = 32.
    """
    import mpmath as mp

    links = ORACLE_FAR_LINKS[rule](params)

    def survival(link, t):
        m, lam, den, coeffs = link
        return m * mp.fsum((sc * mp.exp(n * t / lam)) / (p1 * (1 + li * t / den)) for sc, n, p1, li in coeffs)

    with mp.workdps(50):
        a1, a2 = mp.mpf(params.a1), mp.mpf(params.a2)
        cap = a2 / a1

        def integrand(x):
            if x >= cap:
                return mp.mpf(0)
            r = x / (a2 - a1 * x)
            return survival(links[0], r) * survival(links[1], r) * survival(links[2], x) / (1 + x)

        quarters = [mp.mpf(4) ** -k for k in range(1, 12)]
        points = sorted({cap * q for q in quarters} | {cap - cap * q for q in quarters})
        return float(mp.quad(integrand, [0, *points, cap], method="gauss-legendre") / mp.log(2))


MPMATH_PARAMS = {
    # 36.9 dB is where QUADPACK's rate is off its true value by 1.4e-10.
    "36.9 dB": make_params(rho_s=10**3.69, rho_r=10**3.69),
    "16x16x16": make_params(m_b=16, m_r=16, m_t=16, rho_s=100.0, rho_r=100.0),
    "32x32x32": make_params(m_b=32, m_r=32, m_t=32, rho_s=100.0, rho_r=100.0),
}


@pytest.mark.parametrize("params", MPMATH_PARAMS.values(), ids=MPMATH_PARAMS.keys())
@pytest.mark.parametrize("rate, rule", [(rate_u2_max_u1, "max_u1"), (rate_u2_max_u2, "max_u2")])
def test_far_user_rates_match_mpmath(params, rate, rule):
    oracle = mp_far_user_rate(params, rule)
    assert abs(rate(params).value - oracle) <= max(1e-9, 1e-8 * oracle)


# Laws narrower than the first nodes of one GK21 rule over [0, cap]: with
# QUADPACK's partition the far-user rate read 0 +- 0 after 21 evaluations.
NARROW_PARAMS = {
    "var_br=1e-6": make_params(var_br=1e-6, rho_s=100.0, rho_r=100.0),
    "var_bu1=1e-6": make_params(var_bu1=1e-6, rho_s=100.0, rho_r=100.0),
    "var_ru2=1e-6": make_params(var_ru2=1e-6, rho_s=100.0, rho_r=100.0),
    "-30 dB": make_params(rho_s=1e-3, rho_r=1e-3),
}


@pytest.mark.parametrize("params", NARROW_PARAMS.values(), ids=NARROW_PARAMS.keys())
def test_far_user_rate_resolves_narrow_laws(params):
    oracle = mp_far_user_rate(params, "max_u1")
    assert oracle > 1e-5
    result = rate_u2_max_u1(params)
    assert abs(result.value - oracle) <= max(1e-9, 1e-8 * oracle)
    assert result.abs_error_bound <= max(1e-9, 1e-8 * result.value)


def test_saturated_first_estimate_is_not_accepted(monkeypatch):
    # With one first interval [0, cap] at -30 dB, the rule sees only the tail
    # of the law and its error estimate saturates at resasc, below the
    # tolerance: accepted on that alone, the rate read 1.6e-11, not 8.9e-4.
    params = NARROW_PARAMS["-30 dB"]
    monkeypatch.setattr(analytic.Laws, "breakpoints", lambda self, hi: np.empty((len(hi), 0)))
    result = rate_u2_max_u1(params)
    oracle = mp_far_user_rate(params, "max_u1")
    assert abs(result.value - oracle) <= max(1e-9, 1e-8 * oracle)


BATCHED_CLOSED_FORMS = {
    "far_user_rates": analytic.far_user_rates,
    "near_user_rates": analytic.near_user_rates,
    "near_user_quadratures": analytic.near_user_quadratures,
    "near-user outages": lambda laws: analytic.outages(laws)[0],
    "far-user outages": lambda laws: analytic.outages(laws)[1],
}


def test_far_user_rates_do_not_depend_on_the_batch():
    # Every row of every closed form (a quadrature's value, bound and evaluations) is the
    # same alone (a one-point grid), in the 601-point grid and in chunks of 13.
    grid = power_points(default_params(), SweepSpec(power_db=tuple(i / 10 for i in range(601)), schemes=("max_u1",)))
    for rule in ("max_u1", "max_u2"):
        for name, closed_form in BATCHED_CLOSED_FORMS.items():
            together = closed_form(analytic.Laws(grid, rule))
            chunked = [r for i in range(0, len(grid), 13) for r in closed_form(analytic.Laws(grid[i : i + 13], rule))]
            assert chunked == together, (rule, name)
            alone = [r for params in grid for r in closed_form(analytic._one_set(params, rule))]
            assert alone == together, (rule, name)
        assert oracle_far_user_rates(grid, rule) == analytic.far_user_rates(analytic.Laws(grid, rule)), rule


def test_far_user_rates_return_non_convergence_per_row(baseline, monkeypatch):
    # No rule meets 1e-15 relative: qk21's error floor is 50 eps of |f|.
    monkeypatch.setattr(analytic, "QUADRATURE_REL_TOL", 1e-15)
    monkeypatch.setattr(analytic, "QUADRATURE_ABS_TOL", 1e-300)
    # 20 dB and the narrow law at -30 dB (NARROW_PARAMS), in one call.
    grid = power_points(baseline, SweepSpec(power_db=(20.0, -30.0), schemes=("max_u1",)))
    results = analytic.far_user_rates(analytic.Laws(grid, "max_u1"))
    for result in results:
        assert isinstance(result, NonConvergedError)
        assert "exceeds tolerance" in str(result)
    with pytest.raises(NonConvergedError, match="exceeds tolerance"):
        rate_u2_max_u1(baseline)


# Each call's value and the mpmath oracle of it, with the relative tolerance:
# the quadrature's for the rates, 1e-13 for the laws.
FAR_LAW_CALLS = {
    "rate_u2_max_u1": (lambda p: rate_u2_max_u1(p).value, lambda p: mp_far_user_rate(p, "max_u1"), 1e-8),
    "rate_u2_max_u2": (lambda p: rate_u2_max_u2(p).value, lambda p: mp_far_user_rate(p, "max_u2"), 1e-8),
    "cdf_gamma2_max_u2": (lambda p: cdf_gamma2_max_u2(1.0, p), lambda p: mp_far_user_cdf(p, "max_u2", 1.0), 1e-13),
    "outage_u2_max_u1": (outage_u2_max_u1, lambda p: mp_outages(p, "max_u1")[1], 1e-13),
    "far_user_cdf": (
        lambda p: analytic.far_user_cdf(p, "max_u2", cross_link=False)(1.0),
        lambda p: mp_far_user_cdf(p, "max_u2", 1.0, cross_link=False),
        1e-13,
    ),
}


@pytest.mark.parametrize("call, oracle, rel", FAR_LAW_CALLS.values(), ids=FAR_LAW_CALLS.keys())
def test_far_user_laws_are_exact_above_sixteen_antennas(call, oracle, rel):
    # The alternating sums these laws were once summed by warned from 17
    # antennas on; the positive ones need no warning.
    params = make_params(m_b=17, m_r=4, m_t=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = call(params)
    assert_near_mpmath(value, oracle(params), rel)


def test_link_law_matches_mpmath():
    # F and S of one link over m = 1..64, a = 1e-6..700 and b = 0..1e6,
    # against the alternating sum at 450 digits (S down to 1e-290 under
    # 18 digits of cancellation).
    a = np.geomspace(1e-6, 700.0, 11)
    for m in (1, 2, 4, 5, 16, 17, 32, 64):
        for b in (0.0, 1e-6, 1e-3, 0.3, 1.0, 30.0, 1e6):
            f, s = analytic._link_law(m, a, np.full_like(a, b))
            with mp.workdps(MP_LAW_DPS):
                for i, x in enumerate(a.tolist()):
                    oracle = mp_link_cdf(m, mp.mpf(x), mp.mpf(b))
                    assert_near_mpmath(f[i], float(oracle), 1e-14)
                    assert_near_mpmath(s[i], float(1 - oracle), 1e-14)


def test_deep_near_user_outage_at_seventeen_antennas():
    # The alternating sum read 6.7e-12 here.
    params = make_params(m_b=17, m_r=2, m_t=2, rho_s=1e5, rho_r=1e5)
    oracle = mp_outages(params, "max_u1")[0]
    assert oracle == pytest.approx(4.3313395e-22, rel=1e-7)
    assert_near_mpmath(outage_u1_max_u1(params), oracle)


def test_far_user_cdf_rejects_unknown_rule(baseline):
    with pytest.raises(ValueError, match="max_u3"):
        analytic.far_user_cdf(baseline, "max_u3")


class TestFarUserRates:
    def test_below_power_ratio_cap(self, baseline):
        assert rate_u2_max_u1(baseline).value < 2.0
        assert rate_u2_max_u2(baseline).value < 2.0

    def test_internal_consistency(self, baseline):
        direct = rate_u2_max_u1(baseline)
        rebuilt = rate_from_cdf(lambda x: cdf_gamma2_max_u1(x, baseline), upper=sinr_cap(baseline))
        assert direct.value == pytest.approx(rebuilt.value, rel=1e-10)

    def test_vanishing_source_power(self):
        params = make_params(var_bu1=1e-12)
        assert rate_u1_max_u1(params) < 1e-9
        assert rate_u1_max_u2(params) < 1e-9


def test_near_user_rate_under_far_scheme_equals_random_selection(baseline):
    # no selection gain reaches the near user in either case
    r1_analytic = rate_u1_max_u2(baseline)
    rate_u1, _, _ = montecarlo.estimate_rates(baseline, "random", 150_000, seed=5)
    assert abs(rate_u1.value - r1_analytic) < 3.0 * rate_u1.std_error


class TestZeta:
    def test_baseline_value(self, baseline):
        # theta = sqrt(2) - 1 for half-bit targets; the own-signal branch
        # dominates: zeta = 4 (sqrt(2) - 1)
        assert zeta(baseline) == pytest.approx(1.6568542494923802, rel=1e-14)
        theta1, theta2 = thresholds(baseline)
        assert theta1 == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
        assert theta2 == theta1

    def test_vanishing_targets(self):
        params = make_params(rate1=1e-9, rate2=1e-9)
        assert zeta(params) < 1e-8

    def test_infeasible_far_target(self):
        params = make_params(rate2=2.0)  # threshold 3 = a2/a1
        assert math.isinf(zeta(params))


class TestOutage:
    def test_vanishing_targets_vanishing_outage(self):
        params = make_params(rate1=1e-9, rate2=1e-9)
        assert outage_u1_max_u1(params) < 1e-6
        assert outage_u1_max_u2(params) < 1e-6
        assert outage_u2_max_u1(params) < 1e-6
        assert outage_u2_max_u2(params) < 1e-6

    def test_near_user_outage_is_cdf_at_scaled_threshold(self, baseline):
        z = zeta(baseline)
        assert outage_u1_max_u1(baseline) == cdf_gamma1_max_u1(baseline.a1 * z, baseline)
        assert outage_u1_max_u2(baseline) == cdf_gamma1_max_u2(baseline.a1 * z, baseline)

    def test_infeasible_threshold_certain_outage(self):
        params = make_params(rate2=2.0)
        assert outage_u1_max_u1(params) == 1.0
        assert outage_u1_max_u2(params) == 1.0
        assert outage_u2_max_u1(params) == 1.0
        assert outage_u2_max_u2(params) == 1.0

    def test_single_antenna_schemes_coincide(self):
        params = make_params(m_b=1, m_r=1, m_t=1)
        assert outage_u2_max_u1(params) == pytest.approx(outage_u2_max_u2(params), rel=1e-12)

    def test_probabilities_in_unit_interval(self):
        for db in (0.0, 10.0, 20.0, 40.0, 60.0):
            from fdnoma.config import default_params

            params = default_params(db)
            for fn in (outage_u1_max_u1, outage_u1_max_u2, outage_u2_max_u1, outage_u2_max_u2):
                value = fn(params)
                assert 0.0 <= value <= 1.0
