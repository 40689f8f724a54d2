"""Closed-form and semi-closed-form performance expressions.

Everything here evaluates the statistics implied by the decoupled
stage-wise selection variants (see the selection module): order
statistics of independent exponential gains pushed through the SINR
formulas.  Ergodic rates follow from

    rate = (1/ln 2) * integral_0^upper (1 - F(x)) / (1 + x) dx,

with F the SINR distribution; far-user SINRs are bounded by a2/a1, so
their integrals stop there.  Alternating binomial sums are accumulated
with math.fsum (error-free transformation), which keeps deep outage
floors accurate despite cancellation.

The far-user laws are built once per parameter set: far_user_cdf takes
the links' precomputed mean gains and binomial coefficients and returns
F, which only forms the gain ratio x / (a2 - a1 x) and the sums.  A rate
passes that F to the quadrature, which calls it a few hundred times;
cdf_gamma2_* and outage_u2_* build it for a single evaluation, so a
caller that evaluates one law at many points builds it with
far_user_cdf instead.

The quadrature is scipy's adaptive quad, imported where it is called
(rate_from_cdf and the kernel's singular fallback), not with this module:
importing scipy.integrate costs about 0.6 s and 50 MiB, and a process
that only simulates never integrates.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass

from .config import SystemParams, mean_gains

LN2 = math.log(2.0)
EULER_GAMMA = 0.5772156649015329

_MAX_SAFE_ANTENNAS = 16
_SINGULAR_TOL = 1e-6
_PROB_TOL = 1e-12


class NonConvergedError(RuntimeError):
    """Quadrature failed to meet the requested tolerance within budget."""

    code = "NON_CONVERGED"


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_bound: float
    evaluations: int


def _scaled_e1(t: float) -> float:
    """exp(t) * E1(t) for t > 0; E1 is the upper exponential integral.

    Series below 1, modified-Lentz continued fraction up to 1e10, the
    asymptotic series 1/t (1 - 1/t + 2/t^2) above; its first omitted term
    is 6/t^3 relative, and from about 1e11 on the continued fraction's
    steps round to 1 +- 1 ulp and can miss its 1e-16 stop.  The scaled
    form never overflows, which matters because the rate kernels evaluate
    it at ratios that can be enormous when interference vanishes.
    """
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t!r}")
    if t > 1e10:
        return (1.0 - (1.0 - 2.0 / t) / t) / t
    if t < 1.0:
        # E1(t) = -gamma - ln t + sum_{k>=1} (-1)^(k+1) t^k / (k k!)
        terms = [-EULER_GAMMA - math.log(t)]
        power = 1.0
        for k in range(1, 60):
            power *= t / k
            term = power / k if k % 2 else -power / k
            terms.append(term)
            if power / k < 1e-20:
                break
        return math.exp(t) * math.fsum(terms)
    # E1(t) = e^-t / (t+1 - 1^2/(t+3 - 2^2/(t+5 - ...)))
    tiny = 1e-300
    b = t + 1.0
    f = b if b != 0.0 else tiny
    c = f
    d = 0.0
    for n in range(1, 500):
        a = -float(n * n)
        b += 2.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
    raise NonConvergedError(f"continued fraction for E1({t}) did not converge")


def exp_int_ei(x: float) -> float:
    """Exponential integral Ei(x), defined for x < 0 only."""
    if not x < 0.0:
        raise ValueError(f"EI_DOMAIN_INVALID: need x < 0, got {x!r}")
    t = -x
    return -math.exp(-t) * _scaled_e1(t)


def _rate_kernel(alpha: float, beta: float, singular_tol: float = _SINGULAR_TOL) -> float:
    """integral_0^inf exp(-beta x) / ((1+x)(1+alpha x)) dx, alpha >= 0, beta > 0.

    Closed form (g(t) = exp(t) E1(t)):

        alpha = 0:      g(beta)
        alpha != 1:     (g(beta/alpha) - g(beta)) / (alpha - 1)

    alpha = 1 is a removable singularity; within singular_tol of it the
    kernel falls back to adaptive quadrature instead of the closed form.
    """
    if alpha == 0.0:
        return _scaled_e1(beta)
    if abs(alpha - 1.0) < singular_tol:
        # Imported here, so a process that never integrates does not load scipy.
        from scipy.integrate import quad

        value, _ = quad(
            lambda x: math.exp(-beta * x) / ((1.0 + x) * (1.0 + alpha * x)),
            0.0,
            math.inf,
            epsabs=1e-13,
            epsrel=1e-11,
            limit=200,
        )
        return value
    return (_scaled_e1(beta / alpha) - _scaled_e1(beta)) / (alpha - 1.0)


def _warn_counts(params: SystemParams) -> None:
    """Warn of cancellation above 16 antennas, at the first caller outside this module."""
    worst = max(params.m_b, params.m_r, params.m_t)
    if worst > _MAX_SAFE_ANTENNAS:
        frame, stacklevel = sys._getframe(1), 2
        while frame is not None and frame.f_globals.get("__name__") == __name__:
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            f"antenna count {worst} > {_MAX_SAFE_ANTENNAS}: alternating binomial "
            "sums lose precision to combinatorial cancellation",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _clamp_probability(raw: float) -> float:
    if raw < -_PROB_TOL or raw > 1.0 + _PROB_TOL:
        raise RuntimeError(f"CDF_RANGE_VIOLATION: raw probability {raw!r}")
    return min(max(raw, 0.0), 1.0)


def sinr_cap(params: SystemParams) -> float:
    """Supremum a2/a1 of every far-user-symbol SINR."""
    return params.a2 / params.a1


# Survival functions P(link SINR > x) of the far-user chain.  A link is the
# strongest of m exponential gains of mean lam, over 1 plus an exponential
# interferer of mean lam_i / m_i when lam_i > 0 (den = m_i * lam).  At the
# gain ratio r its survival is the alternating binomial sum
#
#     m * fsum_p ((sign_p C(m-1, p)) * exp(-(p+1) r / lam))
#                / ((p+1) (1 + ((lam_i (p+1)) r) / den)),     p < m,
#
# evaluated in exactly that order; another order moves the last digits of
# the rates.  A link holds m, lam, den and, per term, the precomputed
# (sign_p C(m-1, p), -(p+1), p+1, lam_i (p+1)).
_Link = tuple[int, float, float, tuple[tuple[float, int, int, float], ...]]


def _link(m: int, lam: float, lam_i: float = 0.0, den: float = 1.0) -> _Link:
    coeffs = tuple(
        ((-1.0) ** p * math.comb(m - 1, p), -(p + 1), p + 1, lam_i * (p + 1)) for p in range(m)
    )
    return m, lam, den, coeffs


def _link_survival(link: _Link, r: float) -> float:
    m, lam, den, coeffs = link
    return m * math.fsum(
        [(sc * math.exp(n * r / lam)) / (p1 * (1.0 + li * r / den)) for sc, n, p1, li in coeffs]
    )


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


_FAR_LINKS = {"max_u1": _far_links_max_u1, "max_u2": _far_links_max_u2}


def far_user_cdf(
    params: SystemParams, rule: str, cross_link: bool = True
) -> Callable[[float], float]:
    """The far-user SINR distribution under a selection rule, built once.

    rule is "max_u1" (near-user-first) or "max_u2" (far-user decoupled).
    The law is that of the e2e SINR min(cross, relay, far), as in
    cdf_gamma2_*; cross_link=False drops the near user's cross-decoding
    link, leaving min(relay, far), whose value at the far-user threshold
    is outage_u2_*.  The links before the far one take the gain ratio, the
    far link takes x.  Survivals multiply left to right; an infinite ratio
    (x at the cap up to rounding) survives with probability 0.
    """
    if rule not in _FAR_LINKS:
        raise ValueError(f"unknown rule {rule!r}; have {tuple(_FAR_LINKS)}")
    _warn_counts(params)
    links = _FAR_LINKS[rule](params)
    if not cross_link:
        links = links[1:]
    a1, a2 = params.a1, params.a2
    cap = sinr_cap(params)
    *ratio_links, far = links

    def cdf(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= cap:
            return 1.0
        den = a2 - a1 * x
        r = math.inf if den <= 0.0 else x / den
        if math.isinf(r):
            return 1.0
        survival = 1.0
        for link in ratio_links:
            survival *= _link_survival(link, r)
        return _clamp_probability(1.0 - survival * _link_survival(far, x))

    return cdf


def cdf_gamma1_max_u1(x: float, params: SystemParams) -> float:
    """Distribution of the near-user SINR under near-user-first selection.

    Strongest of m_b direct gains over 1 plus the weakest of m_t
    interfering gains.
    """
    if x <= 0.0:
        return 0.0
    _warn_counts(params)
    g = mean_gains(params)
    m_b, m_t = params.m_b, params.m_t
    scale = params.a1 * g.lam_su1
    terms = [
        (-1.0) ** p
        * math.comb(m_b - 1, p)
        * math.exp(-(p + 1) * x / scale)
        / ((p + 1) * (1.0 + (p + 1) * g.lam_ru1 * x / (m_t * scale)))
        for p in range(m_b)
    ]
    return _clamp_probability(1.0 - m_b * math.fsum(terms))


def cdf_gamma1_max_u2(x: float, params: SystemParams) -> float:
    """Distribution of the near-user SINR under far-user selection.

    No selection gain reaches the near-user links, so both gains are
    plain exponentials.
    """
    if x <= 0.0:
        return 0.0
    g = mean_gains(params)
    scale = params.a1 * g.lam_su1
    return _clamp_probability(1.0 - math.exp(-x / scale) / (1.0 + g.lam_ru1 * x / scale))


def cdf_gamma2_max_u1(x: float, params: SystemParams) -> float:
    """Distribution of the far-user e2e SINR under near-user-first selection."""
    return far_user_cdf(params, "max_u1")(x)


def cdf_gamma2_max_u2(x: float, params: SystemParams) -> float:
    """Distribution of the far-user e2e SINR under far-user decoupled selection."""
    return far_user_cdf(params, "max_u2")(x)


def rate_from_cdf(
    cdf,
    upper: float = math.inf,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-9,
    limit: int = 200,
) -> QuadratureResult:
    """Ergodic rate (1/ln 2) * integral_0^upper (1 - F(x)) / (1 + x) dx.

    Requires F nondecreasing on [0, upper] and F = 1 beyond.  Finite
    domains are truncated a hair inside the endpoint, where the
    integrand has already decayed to zero.
    """
    # Imported here, so a process that never integrates does not load scipy.
    from scipy.integrate import quad

    hi = upper if math.isinf(upper) else upper * (1.0 - 1e-12)

    def integrand(x: float) -> float:
        return (1.0 - cdf(x)) / (1.0 + x)

    value, abserr, info = quad(
        integrand,
        0.0,
        hi,
        epsabs=abs_tol * LN2,
        epsrel=rel_tol,
        limit=limit,
        full_output=True,
    )[:3]
    rate = value / LN2
    bound = abserr / LN2
    if bound > max(abs_tol, rel_tol * abs(rate)):
        raise NonConvergedError(
            f"quadrature error bound {bound:.3e} exceeds tolerance "
            f"(abs {abs_tol:.1e}, rel {rel_tol:.1e}) after {info['neval']} evaluations"
        )
    return QuadratureResult(value=rate, abs_error_bound=bound, evaluations=int(info["neval"]))


def rate_u1_max_u1(params: SystemParams) -> float:
    """Near-user ergodic rate under near-user-first selection (closed form).

    Termwise integration of the survival of cdf_gamma1_max_u1 through the
    rate kernel; terms near the kernel's removable singularity fall back
    to quadrature.
    """
    _warn_counts(params)
    g = mean_gains(params)
    m_b, m_t = params.m_b, params.m_t
    scale = params.a1 * g.lam_su1
    terms = []
    for p in range(m_b):
        alpha = (p + 1) * g.lam_ru1 / (m_t * scale)
        beta = (p + 1) / scale
        coeff = (-1.0) ** p * math.comb(m_b - 1, p) / (p + 1)
        terms.append(coeff * _rate_kernel(alpha, beta))
    return m_b * math.fsum(terms) / LN2


def rate_u1_max_u2(params: SystemParams) -> float:
    """Near-user ergodic rate under far-user selection (closed form).

    Single-exponential links on both sides; coincides with the near-user
    rate of a fully random antenna pair.
    """
    g = mean_gains(params)
    scale = params.a1 * g.lam_su1
    return _rate_kernel(g.lam_ru1 / scale, 1.0 / scale) / LN2


def rate_u2_max_u1(
    params: SystemParams, rel_tol: float = 1e-8, abs_tol: float = 1e-9
) -> QuadratureResult:
    """Far-user ergodic rate under near-user-first selection (quadrature)."""
    return rate_from_cdf(
        far_user_cdf(params, "max_u1"),
        upper=sinr_cap(params),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )


def rate_u2_max_u2(
    params: SystemParams, rel_tol: float = 1e-8, abs_tol: float = 1e-9
) -> QuadratureResult:
    """Far-user ergodic rate under far-user decoupled selection (quadrature)."""
    return rate_from_cdf(
        far_user_cdf(params, "max_u2"),
        upper=sinr_cap(params),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )


def thresholds(params: SystemParams) -> tuple[float, float]:
    """SINR thresholds 2^rate - 1 for the two target rates."""
    return math.expm1(params.rate1 * LN2), math.expm1(params.rate2 * LN2)


def zeta(params: SystemParams) -> float:
    """Combined near-user outage threshold.

    The near user is in outage unless its cross-decoding SINR clears the
    far-user threshold and its own SINR clears its own threshold; both
    events reduce to one threshold on the shared ratio
    X = g_su1 / (g_ru1 + 1).  Infinite when the far-user threshold hits
    the a2/a1 cap (outage is then certain).
    """
    theta1, theta2 = thresholds(params)
    if theta2 >= sinr_cap(params):
        return math.inf
    return max(theta2 / (params.a2 - params.a1 * theta2), theta1 / params.a1)


def outage_u1_max_u1(params: SystemParams) -> float:
    """Near-user outage under near-user-first selection."""
    z = zeta(params)
    if math.isinf(z):
        return 1.0
    return cdf_gamma1_max_u1(params.a1 * z, params)


def outage_u1_max_u2(params: SystemParams) -> float:
    """Near-user outage under far-user selection."""
    z = zeta(params)
    if math.isinf(z):
        return 1.0
    return cdf_gamma1_max_u2(params.a1 * z, params)


def outage_u2_max_u1(params: SystemParams) -> float:
    """Far-user outage under near-user-first selection.

    The relay must decode the far-user symbol and the far user must
    decode it from the relay; the near-user leg does not appear.
    """
    _, theta2 = thresholds(params)
    return far_user_cdf(params, "max_u1", cross_link=False)(theta2)


def outage_u2_max_u2(params: SystemParams) -> float:
    """Far-user outage under far-user decoupled selection."""
    _, theta2 = thresholds(params)
    return far_user_cdf(params, "max_u2", cross_link=False)(theta2)
