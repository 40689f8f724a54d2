"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The cross-validation
criterion simulates 4 x 10^6 trials for rates and 4 x 10^7 for outage and
takes a couple of minutes; everything else is fast.
"""

import math
from dataclasses import replace

import numpy as np

from fdnoma import analytic
from fdnoma.channel import draw_batch
from fdnoma.config import default_params, mean_gains, validate
from fdnoma.montecarlo import _metric_set, _simulate, chosen_sinrs, estimate_rates
from fdnoma.selection import SCHEMES, select_batch
from fdnoma.sinr import cross_sinr, near_sinr, rate_bits

from conftest import exp_int_ei, make_params

POWER_POINTS_DB = (0.0, 10.0, 20.0, 30.0)
RATE_TRIALS = 1_000_000
OUTAGE_TRIALS = 10_000_000

SCHEME_RATE_FORMS = {
    "max_u1_analytic": (analytic.rate_u1_max_u1, lambda p: analytic.rate_u2_max_u1(p).value),
    "max_u2_decoupled": (analytic.rate_u1_max_u2, lambda p: analytic.rate_u2_max_u2(p).value),
}
SCHEME_OUTAGE_FORMS = {
    "max_u1_analytic": (analytic.outage_u1_max_u1, analytic.outage_u2_max_u1),
    "max_u2_decoupled": (analytic.outage_u1_max_u2, analytic.outage_u2_max_u2),
}


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_cross_validation_master_check():
    """Closed forms match simulation for both characterized schemes at
    0/10/20/30 dB: rates within 3 standard errors at 10^6 trials, outage
    within 3 binomial standard errors at 10^7 trials."""
    worst = 0.0
    failures = []
    for db in POWER_POINTS_DB:
        params = default_params(db)
        for scheme, (rate1_fn, rate2_fn) in SCHEME_RATE_FORMS.items():
            r1, r2, _ = estimate_rates(params, scheme, RATE_TRIALS, seed=20_260_811)
            for name, estimate, target in (
                ("rate_u1", r1, rate1_fn(params)),
                ("rate_u2", r2, rate2_fn(params)),
            ):
                z = abs(estimate.value - target) / estimate.std_error
                worst = max(worst, z)
                if z > 3.0:
                    failures.append(f"{db} dB {scheme} {name}: z={z:.2f}")
        per_block = _simulate(params, tuple(SCHEME_OUTAGE_FORMS), OUTAGE_TRIALS, (77_001, int(db)))
        for scheme, (out1_fn, out2_fn) in SCHEME_OUTAGE_FORMS.items():
            measured = _metric_set(per_block[scheme], ("outage",))
            for name, estimate, target in (
                ("outage_u1", measured.outage_u1, out1_fn(params)),
                ("outage_u2", measured.outage_u2, out2_fn(params)),
            ):
                se = math.sqrt(target * (1.0 - target) / OUTAGE_TRIALS)
                z = abs(estimate.value - target) / se if se > 0 else 0.0
                worst = max(worst, z)
                if z > 3.0:
                    failures.append(f"{db} dB {scheme} {name}: z={z:.2f}")
    report(
        "1 (analytic vs simulation)",
        not failures,
        failures[0] if failures else f"worst deviation {worst:.2f} se over 32 comparisons",
    )


def _criterion_2_grid():
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


def test_criterion_2_internal_consistency():
    """Closed-form near-user rates agree with quadrature of their own
    distributions to relative 1e-8 on a 20-point grid including
    near-singular configurations."""
    worst = 0.0
    for idx, params in enumerate(_criterion_2_grid()):
        for closed_fn, cdf_fn in (
            (analytic.rate_u1_max_u1, analytic.cdf_gamma1_max_u1),
            (analytic.rate_u1_max_u2, analytic.cdf_gamma1_max_u2),
        ):
            closed = closed_fn(params)
            quadrature = analytic.rate_from_cdf(
                lambda x: cdf_fn(x, params), rel_tol=1e-10, abs_tol=1e-13
            ).value
            rel = abs(closed - quadrature) / abs(quadrature)
            worst = max(worst, rel)
            assert rel <= 1e-8, f"grid point {idx}: {closed_fn.__name__} rel {rel:.2e}"
    report("2 (closed form vs quadrature)", worst <= 1e-8, f"worst relative gap {worst:.2e}")


def test_criterion_3_threshold_reduction_equivalence():
    """The joint near-user decoding event equals the single-ratio
    threshold event on every one of 10^6 trials."""
    params = default_params(10.0)
    theta1, theta2 = analytic.thresholds(params)
    z = analytic.zeta(params)
    mismatches = 0
    block = 1 << 18
    done = 0
    index = 0
    while done < 1_000_000:
        count = min(block, 1_000_000 - done)
        batch = draw_batch(params, (555, index), count)
        ii, _, kk = select_batch("max_u1", batch, params)
        rows = np.arange(count)
        gsu, gru1 = batch.g_su1[rows, ii], batch.g_ru1[rows, kk]
        joint = (cross_sinr(gsu, gru1, params.a1, params.a2) > theta2) & (
            near_sinr(gsu, gru1, params.a1) > theta1
        )
        reduced = gsu / (gru1 + 1.0) > z
        mismatches += int(np.count_nonzero(joint != reduced))
        done += count
        index += 1
    report("3 (threshold reduction)", mismatches == 0, f"{mismatches} mismatches in 10^6 trials")


def test_criterion_4_dominance_suite():
    """Per-realization dominance with common random numbers, exact:
    sum-rate optimum beats all; exhaustive far-user search beats both the
    decoupled variant and random; near-user-first beats all in near SINR.
    The decoupled variant cannot dominate random per realization (it
    never sees the direct near-user gains), so that leg is checked in the
    mean with a wide margin.
    """
    params = default_params(20.0)
    trials = 100_000
    block = 1 << 15
    done = 0
    index = 0
    mean_gap_sums = {"max_u2_decoupled": 0.0, "random": 0.0}
    while done < trials:
        count = min(block, trials - done)
        batch = draw_batch(params, (808, index), count)
        values = {}
        for scheme in SCHEMES:
            rng = np.random.default_rng((909, index)) if scheme == "random" else None
            g1, _, _, g2, _ = chosen_sinrs(batch, *select_batch(scheme, batch, params, rng), params)
            values[scheme] = (g1, g2, rate_bits(g1) + rate_bits(g2))
        assert np.all(values["max_u2_exhaustive"][1] >= values["max_u2_decoupled"][1])
        assert np.all(values["max_u2_exhaustive"][1] >= values["random"][1])
        for scheme in SCHEMES:
            assert np.all(values["optimum_sumrate"][2] >= values[scheme][2]), scheme
            assert np.all(values["max_u1"][0] >= values[scheme][0]), scheme
        for scheme in mean_gap_sums:
            mean_gap_sums[scheme] += float(np.sum(values[scheme][1]))
        done += count
        index += 1
    decoupled_mean = mean_gap_sums["max_u2_decoupled"] / trials
    random_mean = mean_gap_sums["random"] / trials
    ok = decoupled_mean > random_mean * 1.2
    report(
        "4 (dominance suite)",
        ok,
        f"exact over {trials} realizations x {len(SCHEMES)} schemes; mean far SINR "
        f"decoupled {decoupled_mean:.3f} vs random {random_mean:.3f}",
    )


def test_criterion_5_figure_trends():
    """Sum-rate ordering and near-optimality gap at 30 dB, fairness
    crossover at 30 dB, and the near-user outage floor at 50-60 dB."""
    params = default_params(30.0)
    trials = 1_000_000
    sums = {}
    jains = {}
    schemes = ("optimum_sumrate", "max_u1", "max_u2_exhaustive", "random")
    per_block = _simulate(params, schemes, trials, (33_030,))
    for scheme in schemes:
        measured = _metric_set(per_block[scheme], ("rates", "jain"))
        sums[scheme] = measured.rate_sum.value
        jains[scheme] = measured.jain_index.value

    ordered = (
        sums["optimum_sumrate"] >= sums["max_u1"] >= sums["max_u2_exhaustive"] >= sums["random"]
    )
    gap = (sums["optimum_sumrate"] - sums["max_u1"]) / sums["optimum_sumrate"]
    fairness_flip = jains["max_u2_exhaustive"] > jains["max_u1"]

    floor_50 = analytic.outage_u1_max_u1(default_params(50.0))
    floor_60 = analytic.outage_u1_max_u1(default_params(60.0))
    floor_flat = abs(floor_50 - floor_60) / max(floor_50, floor_60) < 0.10

    ok = ordered and gap <= 0.03 and fairness_flip and floor_flat
    report(
        "5 (figure trends)",
        ok,
        f"sum rates {['%.4f' % sums[s] for s in schemes]}, optimum gap {gap:.3%}, "
        f"jain far {jains['max_u2_exhaustive']:.4f} > near {jains['max_u1']:.4f}, "
        f"floor 50/60 dB {floor_50:.3e}/{floor_60:.3e}",
    )


def test_criterion_6_exponential_integral_oracle():
    """Ei matches a high-precision quadrature of its defining integral to
    1e-10 relative on 50 random points in [-40, -0.01]."""
    import mpmath as mp

    mp.mp.dps = 30
    rng = np.random.default_rng(2026)
    worst = 0.0
    for t in rng.uniform(0.01, 40.0, size=50):
        oracle = -float(mp.quad(lambda u: mp.e ** (-u) / u, [float(t), mp.inf]))
        mine = exp_int_ei(-float(t))
        worst = max(worst, abs(mine - oracle) / abs(oracle))
    report("6 (exponential integral)", worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_criterion_7_cdf_sanity_suite():
    """All four SINR distributions: F(0) = 0, nondecreasing on a
    1000-point grid, and F at the a2/a1 cap equal to 1 for the far-user
    distributions, over 30 random parameter sets."""
    rng = np.random.default_rng(4096)
    checked = 0
    for _ in range(30):
        a1 = float(rng.uniform(0.05, 0.45))
        params = validate(
            replace(
                make_params(),
                a1=a1,
                a2=1.0 - a1,
                m_b=int(rng.integers(1, 7)),
                m_r=int(rng.integers(1, 7)),
                m_t=int(rng.integers(1, 7)),
                k1=float(rng.choice((0.0, rng.uniform(0.001, 1.0)))),
                var_br=float(rng.uniform(0.1, 5.0)),
                var_bu1=float(rng.uniform(0.1, 5.0)),
                var_ru1=float(rng.uniform(0.1, 5.0)),
                var_ru2=float(rng.uniform(0.1, 5.0)),
                var_si=float(rng.uniform(0.1, 5.0)),
                rho_s=float(rng.uniform(1.0, 1e4)),
                rho_r=float(rng.uniform(1.0, 1e4)),
            )
        )
        cap = analytic.sinr_cap(params)
        gains = mean_gains(params)
        near_span = 30.0 * params.a1 * gains.lam_su1
        cases = (
            (analytic.cdf_gamma1_max_u1, near_span, False),
            (analytic.cdf_gamma1_max_u2, near_span, False),
            (analytic.cdf_gamma2_max_u1, cap, True),
            (analytic.cdf_gamma2_max_u2, cap, True),
        )
        for cdf, hi, capped in cases:
            grid = np.linspace(0.0, hi, 1000)
            values = [cdf(float(x), params) for x in grid]
            assert values[0] == 0.0, cdf.__name__
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), cdf.__name__
            assert all(0.0 <= v <= 1.0 for v in values), cdf.__name__
            if capped:
                assert cdf(cap, params) == 1.0, cdf.__name__
            checked += 1
    report("7 (distribution sanity)", True, f"{checked} distribution grids checked")
