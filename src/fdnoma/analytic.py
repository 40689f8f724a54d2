"""Closed-form and semi-closed-form performance expressions.

Everything here evaluates the statistics implied by the decoupled
stage-wise selection variants (see the selection module): order
statistics of independent exponential gains pushed through the SINR
formulas.  Ergodic rates follow from

    rate = (1/ln 2) * integral_0^upper (1 - F(x)) / (1 + x) dx,

with F the SINR distribution; far-user SINRs are bounded by a2/a1, so
their integrals stop there.

Every SINR distribution is a chain of links (_LINKS), each the strongest
of m exponential gains over 1 plus an exponential interferer, and one
evaluator, _link_law, gives a link's distribution or its survival, each a
sum of positive terms by its own recurrence, so deep outage floors keep
their relative accuracy at any antenna count.  The near-user rate is the
paper's closed form, an alternating sum of rate kernels accumulated with
math.fsum and the one sum here that cancels, wherever its error bound
meets the quadrature tolerance.

The closed forms take the Laws of a PowerGrid under one of
ANALYTIC_SCHEMES, the links with one array row per power point, and
evaluate every point in one call over a sweep's whole grid; the one-set
entry points (rate_u1_*, outage_*, cdf_gamma*, whose max_u1 and max_u2
name the schemes max_u1_analytic and max_u2_decoupled) run the same code
on the one-point grid of their set, whose laws are cached, and the
distributions take a point or an array of points.

The far-user rates are integrated by far_user_rates, in numpy, for every
point at once: QUADPACK's adaptive 21-point Gauss-Kronrod scheme over a
first partition graded at the links' SINR scales, with every link's
survival evaluated at every node of every open interval, _CHUNK_INTERVALS
at a time.
A rate does not depend on the other points in its call.
near_user_quadratures runs the same scheme on the near link's
positive-term survival, which checks the near-user closed form or stands in for it.
Both converge to the one tolerance pair, QUADRATURE_REL_TOL and _ABS_TOL.
rate_from_cdf is scipy's quad, kept for the tests and the benchmark's
tracing only, and the only place scipy is imported: importing
scipy.integrate costs about 0.6 s and 50 MiB, and no command needs it.

Last come the MetricSets (closed_form_sets) and sweep rows (analytic_sweep)
of those schemes.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .config import ConfigError, PowerGrid, SweepSpec, SystemParams, check_metrics, gains_at, power_points, thresholds
from .results import ANALYTIC, MetricEstimate, MetricSet, SweepRow, jain_index, masked_set

LN2 = math.log(2.0)
EULER_GAMMA, _EULER_GAMMA_LO = 0.5772156649015329, -4.942915152430645e-18  # gamma in two doubles
_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10  # ln 2 in two doubles; k hi is exact
# (-1)^(k+1) / (k k!) from k = 20 down to 2, the tail of E1's power series in Horner order
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(20, 1, -1))

_SINGULAR_TOL = 1e-6
_PROB_TOL = 1e-12
# far_user_rates and near_user_quadratures converge to these (rate_from_cdf's defaults are the
# same); validate's closed-form check gates on them too.
QUADRATURE_REL_TOL, QUADRATURE_ABS_TOL = 1e-8, 1e-9
_NEAR_BOUND_FACTOR = 8.0  # c of near_user_rates' bound; its mpmath study's worst case needs 1.3 (see the tests)


class NonConvergedError(RuntimeError):
    """Quadrature failed to meet the requested tolerance within budget."""

    code = "NON_CONVERGED"


class QuadratureResult(NamedTuple):
    value: float
    abs_error_bound: float
    evaluations: int


def _two_sum(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """a + b and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _scaled_e1(t: np.ndarray) -> np.ndarray:
    """exp(t) * E1(t) at every t > 0, within 2.2 ulps of 40-digit mpmath; E1 is the upper exponential integral.

    Below 1, the power series (Abramowitz and Stegun 5.1.11) to t^20 by
    Horner, its parts -gamma, -k ln 2 and -ln m (t = m 2^k), t and t^2 q(t)
    summed with their rounding errors, times exp(t) as E1 + expm1(t) E1:
    below 0.01, where high-power points evaluate it, within 0.6 ulps.  From
    1 up, the continued fraction 1 / (t+1 - 1^2/(t+3 - 2^2/(t+5 - ...)))
    evaluated backward from depth 121, within 0.01 eps of converged at t = 1
    and closer above, and 1 / inf = 0 at inf (Cuyt et al., Handbook of
    Continued Fractions for Special Functions, 2008).  The scaled form never
    overflows at the enormous ratios the rate kernels meet when interference
    vanishes.  Each step is elementwise: no element depends on the others.
    """
    if not np.all(t > 0.0):
        raise ValueError(f"need t > 0, got {t[~(t > 0.0)][0]!r}")
    out = np.empty_like(t)
    small = t < 1.0
    ts = t[small]
    q = np.full_like(ts, _E1_SERIES[0])
    for c in _E1_SERIES[1:]:
        q = q * ts + c
    s, e1 = _two_sum(ts, (ts * ts) * q)
    mantissa, k = np.frexp(ts)
    head, e2 = _two_sum(k * -_LN2_HI, -EULER_GAMMA)
    head, e3 = _two_sum(head, -np.log(mantissa))
    head, e4 = _two_sum(head, s)
    low = ((e1 + e2) + (e3 + e4)) - (k * _LN2_LO + _EULER_GAMMA_LO)
    out[small] = head + (low + np.expm1(ts) * (head + low))
    tm = t[~small]
    f = tm + 243.0
    for n in range(121, 1, -1):
        f = (tm - n * n / f) + (2 * n - 1)
    out[~small] = 1.0 / ((tm - 1.0 / f) + 1.0)
    return out


def _rate_kernels(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, E) at every alpha >= 0, beta > 0: K = integral_0^inf exp(-beta x) / ((1+x)(1+alpha x)) dx, and
    E >= |K| what its formula cancels (3e-9 of K just outside _SINGULAR_TOL): K is off by a few ulps of E.

    Closed form (g(t) = exp(t) E1(t)) and E:

        alpha != 1:     (g(beta/alpha) - g(beta)) / (alpha - 1)     (g(beta/alpha) + g(beta)) / |alpha - 1|
        alpha = 1:      K1 = 1 - beta g(beta)                       |K| 1e-12 / eps, for the next term

    At alpha = 0, beta/alpha = inf and g(inf) = 0: both are g(beta), exactly.
    alpha = 1 is a removable singularity.  Within _SINGULAR_TOL of it the
    kernel is K1 + (alpha - 1) K1', K1' = 1/2 - (1 + beta/2) K1, both by
    parts; the next term is below 1e-12 relative.  1 - beta g(beta) cancels
    at large beta, so above 100 K1 is g's asymptotic series
    1/beta (1 - 2/beta + 6/beta^2 - ... - 12!/beta^11), within 6e-15
    there.  K1' cancels too, but it enters times |alpha - 1| < _SINGULAR_TOL.
    """
    singular = np.abs(alpha - 1.0) < _SINGULAR_TOL
    with np.errstate(divide="ignore"):  # beta / 0 = inf at alpha = 0
        ratio = beta / alpha
    g_ratio, g = _scaled_e1(np.stack([ratio, beta]))
    with np.errstate(divide="ignore", invalid="ignore"):  # / 0 at alpha = 1, overwritten below
        out = (g_ratio - g) / (alpha - 1.0)
        scale = (g_ratio + g) / np.abs(alpha - 1.0)
    b = beta[singular]
    k1 = 1.0 - b * g[singular]
    large, series = b > 100.0, 1.0
    for k in range(12, 1, -1):
        series = 1.0 - k / b[large] * series
    k1[large] = series / b[large]
    out[singular] = k1 + (alpha[singular] - 1.0) * (0.5 - (1.0 + 0.5 * b) * k1)
    scale[singular] = np.abs(out[singular]) * (1e-12 / _EPMACH)
    return out, scale


def sinr_cap(params: SystemParams) -> float:
    """Supremum a2/a1 of every far-user-symbol SINR."""
    return params.a2 / params.a1


# The one table of the schemes that have closed forms, the decoupled
# stage-wise variants of the selection module, keyed by scheme id: the
# links of each one's SINR laws, as (m, lam, lam_i, den) of parameters p
# and their mean gains g (one row per power point, see Laws).  A link is
# the strongest of m exponential gains of mean lam over 1 plus an
# exponential interferer of mean lam_i lam / den: the weakest of m_i gains
# of mean lam_i when den = m_i lam, none when lam_i = 0.  At t its law is
# _link_law(m, t / lam, (lam_i t) / den).  The near link is the near user's
# SINR, at x.  The far-user SINR is the chain min(cross, relay, far), its
# outage min(relay, far): the cross link (the near user decoding the
# far-user symbol) and the relay link take the gain ratio x / (a2 - a1 x),
# the far link takes x.
_LINKS = {
    "max_u1_analytic": lambda p, g: (
        (p.m_b, p.a1 * g.lam_su1, g.lam_ru1, p.m_t * (p.a1 * g.lam_su1)),
        (p.m_b, g.lam_su1, g.lam_ru1, p.m_t * g.lam_su1),
        (p.m_r, g.lam_br, g.lam_si, g.lam_br),
        (1, g.lam_ru2, 0.0, 1.0),
    ),
    "max_u2_decoupled": lambda p, g: (
        (1, p.a1 * g.lam_su1, g.lam_ru1, p.a1 * g.lam_su1),
        (1, g.lam_su1, g.lam_ru1, g.lam_su1),
        (p.m_b, g.lam_br, g.lam_si, p.m_r * g.lam_br),
        (p.m_t, g.lam_ru2, 0.0, 1.0),
    ),
}
ANALYTIC_SCHEMES = tuple(_LINKS)


def _link_law(m: int, a, b, survival: bool = False) -> np.ndarray:
    """F, or S = 1 - F with survival=True, of a link of _LINKS at a = t / lam and b = lam_i t / den, elementwise.

    F = P(X <= a (1 + Y)) for X the largest of m unit-mean exponentials and
    Y exponential of mean b / a; with c = e^-a and d = 1 - c it is
    2F1(-m, 1/b; 1/b + 1; c), whose binomial expansion alternates in sign.
    By parts on its Euler integral, F and S obey

        F_i = (i b F_(i-1) + d^i) / (1 + i b),              F_0 = 1,
        S_i = (i b S_(i-1) + (1 - d^i)) / (1 + i b),        S_0 = 0,

    with 1 - d^i = (1 - d^(i-1)) + c d^(i-1): each step is a convex
    combination of nonnegative numbers, so F and S are sums of positive
    terms (as Pfaff's transformation, DLMF 15.8.1, also writes F) and each
    keeps its own relative accuracy, within 1e-14, down to underflow.  Each
    caller reads one side, so a call runs that side's recurrence alone (F
    needs no c).  b = 0 (no interferer) gives F = d^m; b is capped at 1e300,
    so an overflowed interference term weighs as an infinitely strong one.
    This is the one check of the laws' range, on the side computed.
    """
    minus_a = -a
    c, d = np.exp(minus_a) if survival else None, -np.expm1(minus_a)
    b = np.fmin(b, 1e300)  # also where b is 0 * inf: a = inf there, and F = 1 at any b
    u = 1.0 / (1.0 + b)
    value, power, rest = (c if survival else b + d) * u, d, c  # F_i or S_i, d^i and 1 - d^i at i = 1
    for i in range(2, m + 1):
        ib = i * b
        u = 1.0 / (1.0 + ib)
        if survival:
            rest = rest + c * power
        power = power * d
        value = (ib * value + (rest if survival else power)) * u
    if value.max(initial=0.0) > 1.0 + _PROB_TOL:
        raise RuntimeError(f"CDF_RANGE_VIOLATION: probability {value.max()!r}")
    return np.minimum(value, 1.0)


@functools.lru_cache(maxsize=64)
def _one_set(params: SystemParams, scheme: str) -> Laws:
    """The laws of one parameter set: those of its one-point grid, cached per (set, scheme); none is written to."""
    return Laws(PowerGrid.at(params), scheme)


def _point_or_array(values: np.ndarray, x) -> float | np.ndarray:
    """One set's values at x: a float (its one row) at a scalar x, else the array."""
    return values if getattr(x, "ndim", 0) else float(values[0])


def cdf_gamma1_max_u1(x, params: SystemParams):
    """Distribution of the near-user SINR under near-user-first selection, at a point or an array.

    Strongest of m_b direct gains over 1 plus the weakest of m_t
    interfering gains.
    """
    return _point_or_array(_one_set(params, "max_u1_analytic").near_cdf(x), x)


def cdf_gamma1_max_u2(x, params: SystemParams):
    """Distribution of the near-user SINR under far-user selection, at a point or an array.

    No selection gain reaches the near-user links, so both gains are
    plain exponentials.
    """
    return _point_or_array(_one_set(params, "max_u2_decoupled").near_cdf(x), x)


def cdf_gamma2_max_u1(x, params: SystemParams):
    """Distribution of the far-user e2e SINR under near-user-first selection, at a point or an array."""
    return _point_or_array(_one_set(params, "max_u1_analytic").far_cdf(x), x)


def cdf_gamma2_max_u2(x, params: SystemParams):
    """Distribution of the far-user e2e SINR under far-user decoupled selection, at a point or an array."""
    return _point_or_array(_one_set(params, "max_u2_decoupled").far_cdf(x), x)


def _checked(rate: float, bound: float, evaluations: int, rel_tol: float, abs_tol: float):
    """The QuadratureResult, or the NonConvergedError when the bound misses the tolerance."""
    if bound > max(abs_tol, rel_tol * abs(rate)):
        return NonConvergedError(
            f"quadrature error bound {bound:.3e} exceeds tolerance "
            f"(abs {abs_tol:.1e}, rel {rel_tol:.1e}) after {evaluations} evaluations"
        )
    return QuadratureResult(value=rate, abs_error_bound=bound, evaluations=evaluations)


def rate_from_cdf(
    cdf,
    upper: float = math.inf,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-9,
    limit: int = 200,
    points: tuple[float, ...] = (),
) -> QuadratureResult:
    """Ergodic rate (1/ln 2) * integral_0^upper (1 - F(x)) / (1 + x) dx, by scipy's quad.

    Requires F nondecreasing on [0, upper] and F = 1 beyond.  Finite
    domains are truncated a hair inside the endpoint, where the
    integrand has already decayed to zero.  The integral is split at the
    increasing points inside (0, upper), each piece integrated on its own;
    a split at the distribution's scale keeps a narrow one in view of the
    first rule.  The tests hold the package's own quadratures to it.
    """
    # Imported here, so a process that never integrates does not load scipy.
    from scipy.integrate import quad

    hi = upper if math.isinf(upper) else upper * (1.0 - 1e-12)
    edges = [0.0, *(p for p in points if 0.0 < p < hi), hi]

    def integrand(x: float) -> float:
        return (1.0 - cdf(x)) / (1.0 + x)

    value = abserr = 0.0
    evaluations = 0
    for lo, up in zip(edges, edges[1:]):
        piece, piece_err, info = quad(
            integrand,
            lo,
            up,
            epsabs=abs_tol * LN2,
            epsrel=rel_tol,
            limit=limit,
            full_output=True,
        )[:3]
        value, abserr, evaluations = value + piece, abserr + piece_err, evaluations + int(info["neval"])
    result = _checked(value / LN2, abserr / LN2, evaluations, rel_tol, abs_tol)
    if isinstance(result, NonConvergedError):
        raise result
    return result


# QUADPACK's 21-point Gauss-Kronrod rule (qk21; Piessens et al. 1983): the
# Kronrod abscissae on [0, 1] from the end inward, their weights, and the
# 10-point Gauss weights of the abscissae at odd (0-based) indices.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525986650, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WGK_CENTER = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# Node offsets in half-lengths: the ten left abscissae, the center, the ten right ones.
_OFFSETS = np.array([-x for x in _XGK] + [0.0] + list(_XGK))
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
# Intervals evaluated per numpy call: 21 x 780 nodes of float64 are 131,040 B, under glibc's default
# 128 KiB mmap threshold, so each temporary comes from the heap instead of a fresh mapping.
_CHUNK_INTERVALS = 780
# The first partition of a far-user integral grades by this ratio: up from
# the smallest link SINR scale for eight powers, past which the survival is
# below m e^-(4^7), and toward the cap (see Laws.breakpoints).
_BREAK_RATIO = 4.0
_BREAK_POWERS = 8
# hi = cap (1 - 1e-12) is below cap - cap / 4^20: no row grades further toward the cap.
_CAP_POWERS = 20
_MAX_INTERVALS = 200


def graded_points(scale: float) -> tuple[float, ...]:
    """scale times the first _BREAK_POWERS powers of _BREAK_RATIO, from 1.

    Split there, an integral over a law of that scale keeps the law in
    view of the first rule of every piece.
    """
    return tuple(scale * _BREAK_RATIO**k for k in range(_BREAK_POWERS))


class Laws:
    """The links of _LINKS under one of ANALYTIC_SCHEMES over a power grid, one row per point.

    The mean gains are those of mean_gains at the grid's two power columns
    as arrays, and the grid's other fields stay scalars, so each _LINKS
    formula evaluates every point in one numpy pass with each element's
    float operations unchanged.  a1 and a2 stay scalars; each link keeps its
    m and one row per point of each of lam, lam_i and den (times a row of
    ones, which is exact).  The methods evaluate a law at x of every row
    (with one point, at any number of x), far_survival at quadrature nodes of rows.
    """

    def __init__(self, grid: PowerGrid, scheme: str):
        if scheme not in _LINKS:
            raise ConfigError("SCHEME_NO_CLOSED_FORM", f"no closed forms for scheme {scheme!r}; have {ANALYTIC_SCHEMES}")
        params, ones = grid.params, np.ones(len(grid))
        self.grid, self.scheme, self.a1, self.a2 = grid, scheme, params.a1, params.a2
        gains = gains_at(params, np.array(grid.rho_s), np.array(grid.rho_r))
        self.links = [(m, *(v * ones for v in means)) for m, *means in _LINKS[scheme](params, gains)]

    def _at(self, link: tuple, rows, t, survival: bool = False) -> np.ndarray:
        """_link_law of a link at t of rows, F or S.  A t / lam or an interference term too large
        for a float is infinite (the callers silence the overflow), which makes the link's F exactly 1."""
        m, *means = link
        lam, lam_i, den = means if rows is None else (v[rows] for v in means)
        return _link_law(m, t / lam, (lam_i * t) / den, survival)

    def near_cdf(self, x) -> np.ndarray:
        """F of the near-user SINR at x, 0 up to 0 (and 1 at x = inf, where a missing interferer's term is 0 * inf)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._at(self.links[0], None, np.maximum(x, 0.0))

    def _far_points(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r, t, beyond): the gain ratio for the cross and relay links and x for the far link, x clipped
        to [0, cap], and where x is at or past the cap (up to rounding, where r is not in [0, inf)): r is
        0 there and the chain's value is overwritten."""
        a1, a2 = self.a1, self.a2
        cap = a2 / a1
        t = np.clip(x, 0.0, cap)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = t / (a2 - a1 * t)
            beyond = (t >= cap) | ~((r >= 0.0) & (r < np.inf))
        return np.where(beyond, 0.0, r), t, beyond

    def far_cdf(self, x, cross_link: bool = True) -> np.ndarray:
        """F of the far-user e2e SINR min(cross, relay, far) at x, 0 up to 0 and 1 from the a2/a1 cap on.

        cross_link=False drops the near user's cross-decoding link, leaving
        min(relay, far), whose value at the far-user threshold is the far-user
        outage.  1 - prod(1 - F_i), as -expm1(sum log1p(-F_i)).
        """
        r, t, beyond = self._far_points(x)
        links = self.links[1 if cross_link else 2 :]
        points = [r] * (len(links) - 1) + [t]
        with np.errstate(divide="ignore", over="ignore"):  # log1p(-1) = -inf, where a link surely fails
            total = sum(np.log1p(-self._at(link, None, at)) for link, at in zip(links, points))
            cdf = 0.0 - np.expm1(total)  # 0.0 - keeps a zero unsigned
        return np.where(beyond, 1.0, cdf)

    def far_survival(self, x, rows) -> np.ndarray:
        """1 - F of the far-user chain at quadrature nodes x of rows: S_cross S_relay S_far, in that order.

        The nodes lie in (0, hi), hi = cap (1 - 1e-12), so the gain ratio
        r = x / (a2 - a1 x) is finite and positive there and far_cdf's clip
        to the cap and its mask past it have nothing to do.
        """
        r = x / (self.a2 - self.a1 * x)
        cross, relay, far = self.links[1:]
        with np.errstate(over="ignore"):
            return self._at(cross, rows, r, True) * self._at(relay, rows, r, True) * self._at(far, rows, x, True)

    def breakpoints(self, hi: np.ndarray) -> np.ndarray:
        """The increasing inner points, in (0, hi), of each row's first partition, padded with inf.

        They are the link SINR scales (a cross or relay link takes the gain
        ratio r = x / (a2 - a1 x), which is lam at a2 lam / (1 + a1 lam)),
        the graded_points of the smallest scale, so that a narrow law is
        resolved, and cap - cap / _BREAK_RATIO^k down to a quarter of
        the ratio links' distance from the cap: r has its pole there, so
        the integrand varies on the scale of that distance.  hi is just
        below the cap, so k stops before _CAP_POWERS.
        """
        a1, a2 = self.a1, self.a2
        cap = a2 / a1
        cross, relay = (a2 * lam / (1.0 + a1 * lam) for _, lam, *_ in self.links[1:3])
        far = self.links[3][1]
        graded = np.minimum(np.minimum(cross, relay), far)[:, None] * np.array(graded_points(1.0))
        nearest = (cap - np.maximum(cross, relay)[:, None]) / _BREAK_RATIO
        distance = cap / np.array([_BREAK_RATIO**k for k in range(1, _CAP_POWERS + 1)])
        # Both hold for a leading run of k only, as in a loop that stops at the first failure.
        going = (distance > nearest) & (cap - distance < hi[:, None])
        points = np.column_stack([cross, relay, far, graded, np.where(going, cap - distance, np.inf)])
        points[~((points > 0.0) & (points < hi[:, None]))] = np.inf
        points.sort(axis=1)
        points[:, 1:][points[:, 1:] == points[:, :-1]] = np.inf  # each point once
        points.sort(axis=1)
        return points


def _gk21(survival, rows: np.ndarray, a: np.ndarray, b: np.ndarray):
    """QUADPACK's qk21 of survival(x, rows) / (1 + x) over [a, b] of each row: (result, abserr, resasc).

    survival takes x of shape (21, k), the nodes of k intervals, and their
    rows, of shape (k,), for _CHUNK_INTERVALS intervals at a time.  Every
    rule sum runs over its row's own nodes in a fixed order, so a row's
    numbers do not depend on which other intervals share the call.
    Exponentials underflow and interference terms may overflow to inf,
    which both make a term exactly 0, and the rule sums of a vanishing
    integrand underflow, so those two warnings are silenced.
    """
    with np.errstate(over="ignore", under="ignore"):
        center, half = 0.5 * (a + b), 0.5 * (b - a)
        f = np.empty((len(_OFFSETS), len(rows)))
        for start in range(0, len(rows), _CHUNK_INTERVALS):
            part = slice(start, start + _CHUNK_INTERVALS)
            x = center[part] + half[part] * _OFFSETS[:, None]
            f[:, part] = survival(x, rows[part]) / (1.0 + x)
        left, fc, right = f[:10], f[10], f[11:]  # left[j] and right[j] sit at -+_XGK[j]
        resk = _WGK_CENTER * fc
        resg = np.zeros_like(fc)
        resabs = np.abs(resk)
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # Gauss abscissae first, as in qk21
            fsum = left[j] + right[j]
            if j % 2:
                resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (np.abs(left[j]) + np.abs(right[j]))
        reskh = resk * 0.5
        resasc = _WGK_CENTER * np.abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (np.abs(left[j] - reskh) + np.abs(right[j] - reskh))
        dhalf = np.abs(half)
        resabs, resasc = resabs * dhalf, resasc * dhalf
        abserr = np.abs((resk - resg) * half)
        scaled = (resasc != 0.0) & (abserr != 0.0)
        ratio = 200.0 * abserr / np.where(scaled, resasc, 1.0)
        abserr = np.where(scaled, resasc * np.minimum(1.0, ratio) ** 1.5, abserr)
        floor = np.where(resabs > _UFLOW / (50.0 * _EPMACH), 50.0 * _EPMACH * resabs, 0.0)
        abserr = np.maximum(floor, abserr)
        return resk * half, abserr, resasc


def _qag(survival, hi: np.ndarray, points: np.ndarray, tail: float = 0.0) -> list[QuadratureResult | NonConvergedError]:
    """QUADPACK's qag with qk21 of survival(x, rows) / (1 + x) over [0, hi] of every row, as rates.

    A row's first partition splits at its points in (0, hi), padded with
    inf.  Every round bisects each unfinished integral's interval of largest
    error, up to _MAX_INTERVALS intervals, until it meets QUADRATURE_REL_TOL
    or QUADRATURE_ABS_TOL.  As in qag, an integral is accepted on its first
    partition only if no interval's error estimate is saturated at its
    resasc.  tail bounds the integral beyond hi and is added to each error
    bound.
    """
    count = len(hi)
    edges = np.column_stack([np.zeros(count), points, hi])
    edges.sort(axis=1)
    rows, slots = np.nonzero(np.isfinite(edges[:, 1:]))  # each row's intervals in order
    lo, up = edges[rows, slots], edges[rows, slots + 1]
    result, error, resasc = _gk21(survival, rows, lo, up)

    last = np.bincount(rows, minlength=count)
    ends_first = np.cumsum(last).tolist()  # where each row's first intervals end in result
    # Per-row sums in interval order: bincount adds its weights in sequence.
    area = np.bincount(rows, weights=result, minlength=count)
    errsum = np.bincount(rows, weights=error, minlength=count)
    saturated = np.bincount(rows, weights=(error == resasc) & (error != 0.0), minlength=count) > 0
    evaluations = 21 * last
    rel_tol, abs_tol = QUADRATURE_REL_TOL, QUADRATURE_ABS_TOL
    epsabs = abs_tol * LN2
    done = (errsum <= np.maximum(epsabs, rel_tol * np.abs(area))) & ~saturated
    # Interval bookkeeping for the rows left unfinished by their first partition only, row local[r] for row r.
    unfinished = ~done
    local = np.cumsum(unfinished) - 1
    keep = unfinished[rows]
    shape = (int(unfinished.sum()), max(int(last.max(initial=0)), _MAX_INTERVALS))
    starts, ends, values = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    errors = np.full(shape, -np.inf)  # unused slots are never the largest error
    at = local[rows[keep]], slots[keep]
    starts[at], ends[at], values[at], errors[at] = lo[keep], up[keep], result[keep], error[keep]
    while True:
        act = np.flatnonzero(~done & (last < _MAX_INTERVALS))
        if not len(act):
            break
        k = local[act]
        worst = np.argmax(errors[k, : int(last[act].max())], axis=1)
        a, b = starts[k, worst], ends[k, worst]
        mid = 0.5 * (a + b)
        res, err, _ = _gk21(survival, np.tile(act, 2), np.concatenate([a, mid]), np.concatenate([mid, b]))
        res1, res2 = np.split(res, 2)
        err1, err2 = np.split(err, 2)
        errsum[act] = errsum[act] + (err1 + err2) - errors[k, worst]
        area[act] = area[act] + (res1 + res2) - values[k, worst]
        ends[k, worst], values[k, worst], errors[k, worst] = mid, res1, err1
        new = last[act]
        starts[k, new], ends[k, new], values[k, new], errors[k, new] = mid, b, res2, err2
        last[act] += 1
        evaluations[act] += 42
        done[act] = errsum[act] <= np.maximum(epsabs, rel_tol * np.abs(area[act]))
    first, kept = result.tolist(), values.tolist()
    return [
        _checked(math.fsum(kept[k][:n] if more else first[end - n : end]) / LN2, bound / LN2, evals, rel_tol, abs_tol)
        for more, k, n, end, bound, evals in zip(
            unfinished.tolist(), local.tolist(), last.tolist(), ends_first, (errsum + tail).tolist(),
            evaluations.tolist())
    ]


def far_user_rates(laws: Laws) -> list[QuadratureResult | NonConvergedError]:
    """Far-user ergodic rates at every point of the laws, integrated together.

    Each rate is (1/ln 2) * integral_0^cap (1 - F(x)) / (1 + x) dx of its
    Laws.far_cdf, by _qag, with breakpoints at the links' SINR scales (see
    Laws.breakpoints).

    Returns, per point, its QuadratureResult or, when its error bound
    misses max(QUADRATURE_ABS_TOL, QUADRATURE_REL_TOL * rate), the
    NonConvergedError that rate_from_cdf would raise.  A result depends only on its own point,
    never on the others in the call.
    """
    # Finite domains stop a hair inside the cap, as in rate_from_cdf.
    hi = np.full(len(laws.grid), laws.a2 / laws.a1 * (1.0 - 1e-12))
    return _qag(laws.far_survival, hi, laws.breakpoints(hi))


def near_user_quadratures(laws: Laws) -> list[QuadratureResult | NonConvergedError]:
    """Near-user ergodic rates at every point of the laws, by _qag, as far_user_rates.

    It integrates the near link's survival, a sum of positive terms (see
    _link_law), not the closed form's alternating kernel sum, so it checks
    that sum independently.  The integral stops at hi = lam h,
    h = ln m + 60, lam the link's SINR scale: the survival is below
    m e^(-x / lam), so the rest is below m E1(h) < e^-60 / h, which the
    error bound includes.  The first partition is graded_points(lam), for
    the survival, and lam / _BREAK_RATIO^k down to 1, for 1 / (1 + x): at
    high power lam is far above that factor's scale, 1.
    """
    m, lam, *_ = laws.links[0]
    h = math.log(m) + 60.0
    hi = lam * h
    steps = np.arange(1, 2 + int(math.log(max(lam.max(initial=1.0), 1.0), _BREAK_RATIO)))
    points = lam[:, None] * np.concatenate([_BREAK_RATIO ** -steps, graded_points(1.0)])
    points[(points >= hi[:, None]) | (points < np.minimum(lam, 1.0)[:, None])] = np.inf
    survival = lambda x, rows: laws._at(laws.links[0], rows, x, True)
    return _qag(survival, hi, points, tail=math.exp(-60.0) / h)


def near_user_rates(laws: Laws) -> list[QuadratureResult | NonConvergedError]:
    """Near-user ergodic rate at every point of the laws, as far_user_rates.

    The paper's closed form integrates the near link's survival,
    _LINKS[scheme][0] (m_b terms under "max_u1_analytic", one under
    "max_u2_decoupled"), termwise through the rate kernel: one kernel call for
    all, an fsum per point of terms that alternate in sign.  A point keeps it, with 0 evaluations, where its bound
    c eps m / ln 2 sum_p |coeff_p| E_p (c = _NEAR_BOUND_FACTOR, E_p as in
    _rate_kernels: c kappa eps |rate|, kappa the condition number of Higham
    2002, section 4.2) meets the quadrature tolerance.  The others, and every
    point from m_b = 1031 on, where the binomial coefficients overflow a float,
    take near_user_quadratures, run once if any point needs it.
    """
    m, lam, lam_i, den = laws.links[0]
    p1 = np.arange(1.0, m + 1.0)
    try:
        coeff = np.array([(-1.0) ** p * math.comb(m - 1, p) for p in range(m)]) / p1
    except OverflowError:
        return near_user_quadratures(laws)
    alpha = (p1 * lam_i[:, None]) / den[:, None]
    beta = p1 / lam[:, None]
    kernels, scales = _rate_kernels(alpha, beta)
    with np.errstate(over="ignore"):  # an infinite bound sends its point to the quadrature
        bounds = (_NEAR_BOUND_FACTOR * _EPMACH * m / LN2) * (np.abs(coeff) * scales).sum(axis=1)
    sums = [_checked(m * math.fsum(row) / LN2, bound, 0, QUADRATURE_REL_TOL, QUADRATURE_ABS_TOL)
            for row, bound in zip((coeff * kernels).tolist(), bounds.tolist())]
    held = [isinstance(result, QuadratureResult) for result in sums]
    return sums if all(held) else [s if kept else q for s, kept, q in zip(sums, held, near_user_quadratures(laws))]


def _one_rate(rates, params: SystemParams, scheme: str) -> QuadratureResult:
    (result,) = rates(_one_set(params, scheme))
    if isinstance(result, NonConvergedError):
        raise result
    return result


def rate_u1_max_u1(params: SystemParams) -> float:
    """Near-user ergodic rate under near-user-first selection (closed form, or quadrature; see near_user_rates)."""
    return _one_rate(near_user_rates, params, "max_u1_analytic").value


def rate_u1_max_u2(params: SystemParams) -> float:
    """Near-user ergodic rate under far-user selection (closed form, or quadrature; see near_user_rates).

    Single-exponential links on both sides; coincides with the near-user
    rate of a fully random antenna pair.
    """
    return _one_rate(near_user_rates, params, "max_u2_decoupled").value


def rate_u2_max_u1(params: SystemParams) -> QuadratureResult:
    """Far-user ergodic rate under near-user-first selection (quadrature)."""
    return _one_rate(far_user_rates, params, "max_u1_analytic")


def rate_u2_max_u2(params: SystemParams) -> QuadratureResult:
    """Far-user ergodic rate under far-user decoupled selection (quadrature)."""
    return _one_rate(far_user_rates, params, "max_u2_decoupled")


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


def outages(laws: Laws) -> tuple[list[float], list[float]]:
    """(near-user, far-user) outage at every point of the laws, from one evaluation of each law.

    The near-user outage is its SINR distribution cdf_gamma1_* at a1 zeta,
    or 1 where zeta is infinite.  The far-user outage needs the relay to
    decode the far-user symbol and the far user to decode it from the
    relay; the near-user leg does not appear.  It is Laws.far_cdf with
    cross_link=False at the far-user threshold.  zeta and thresholds read
    no power, so they run once per call.
    """
    z, theta2 = zeta(laws.grid.params), thresholds(laws.grid.params)[1]
    near = laws.near_cdf(laws.a1 * z).tolist() if math.isfinite(z) else [1.0] * len(laws.grid)
    return near, laws.far_cdf(theta2, cross_link=False).tolist()


def outage_u1_max_u1(params: SystemParams) -> float:
    """Near-user outage under near-user-first selection."""
    return outages(_one_set(params, "max_u1_analytic"))[0][0]


def outage_u1_max_u2(params: SystemParams) -> float:
    """Near-user outage under far-user selection."""
    return outages(_one_set(params, "max_u2_decoupled"))[0][0]


def outage_u2_max_u1(params: SystemParams) -> float:
    """Far-user outage under near-user-first selection."""
    return outages(_one_set(params, "max_u1_analytic"))[1][0]


def outage_u2_max_u2(params: SystemParams) -> float:
    """Far-user outage under far-user decoupled selection."""
    return outages(_one_set(params, "max_u2_decoupled"))[1][0]


# A closed form has no standard error and no trials; a row without a value holds _NAN.
_NAN = MetricEstimate(math.nan, 0.0, 0)


def _closed_form_set(metrics: tuple[str, ...], near_rate, far_rate, o1, o2) -> MetricSet | NonConvergedError:
    """One parameter set's MetricSet from its near- and far-user rates' QuadratureResults and its
    outages o1, o2 (each None where the metrics need none), or a rate's NonConvergedError."""
    for rate in (near_rate, far_rate):
        if isinstance(rate, NonConvergedError):
            return rate
    r1, r2 = (None if rate is None else rate.value for rate in (near_rate, far_rate))
    return masked_set(
        metrics, _NAN,
        rates=lambda: (MetricEstimate(r1, 0.0, 0), MetricEstimate(r2, 0.0, 0), MetricEstimate(r1 + r2, 0.0, 0)),
        outages=lambda: (MetricEstimate(o1, 0.0, 0), MetricEstimate(o2, 0.0, 0)),
        jain=lambda: MetricEstimate(jain_index(r1, r2), 0.0, 0),
    )


def closed_form_sets(grid: PowerGrid, scheme: str, metrics: tuple[str, ...]):
    """metric_sets of the grid's Laws under one of ANALYTIC_SCHEMES, built once the metric names are checked."""
    check_metrics(metrics)
    return metric_sets(Laws(grid, scheme), metrics)


def metric_sets(laws: Laws, metrics: tuple[str, ...]):
    """_closed_form_set at each point of the laws, in order, as an iterator; each closed form runs once for all."""
    rates_u1 = far_rates = outages_u1 = outages_u2 = [None] * len(laws.grid)
    if "rates" in metrics or "jain" in metrics:
        far_rates, rates_u1 = far_user_rates(laws), near_user_rates(laws)
    if "outage" in metrics:
        outages_u1, outages_u2 = outages(laws)
    return (_closed_form_set(metrics, *values) for values in zip(rates_u1, far_rates, outages_u1, outages_u2))


def analytic_sweep(params: SystemParams, sweep: SweepSpec) -> tuple[list[SweepRow], list[str]]:
    """Closed-form sweep rows for the schemes that have closed forms, and notes.

    The power grid is checked whole before any closed form runs, and each
    closed form of each scheme is evaluated over it in one call.  A (point,
    scheme) whose near- or far-user rate does not converge gets a row of NaNs and a
    NON_CONVERGED note; the sweep goes on with the other rows.
    """
    grid = power_points(params, sweep)
    sets = [closed_form_sets(grid, scheme, sweep.metrics) for scheme in sweep.schemes]
    rows, notes = [], []
    for power_db, *point in zip(grid.power_db, *sets):
        for scheme, metrics in zip(sweep.schemes, point):
            if isinstance(metrics, NonConvergedError):
                notes.append(f"NON_CONVERGED at {power_db} dB / {scheme}: {metrics}")
                metrics = masked_set((), _NAN)
            rows.append(SweepRow(power_db, scheme, ANALYTIC, 0, metrics))
    return rows, notes
