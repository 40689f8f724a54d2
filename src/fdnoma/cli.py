"""Command-line front end: parameter sweeps to CSV and a self-check report.

Exit codes: 0 success, 1 usage error, 2 config/IO error, 3 validation
failure.  Powers are dB-facing here and linear everywhere else.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import analytic
from .analytic import ANALYTIC_SCHEMES, analytic_sweep, closed_form_sets
from .config import ConfigError, KNOWN_METRICS, PowerGrid, SweepSpec, check_run, load_config
from .montecarlo import (
    estimate_metrics,
    estimate_outage,  # noqa: F401  no longer called here; perfbench/spans.py wraps the name
    estimate_rates,  # noqa: F401  likewise
    run_sweep,
)
from .results import ANALYTIC, MONTE_CARLO, SweepRow, write_csv
from .selection import SCHEMES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


_MAX_POWER_POINTS = 1_000_000


def parse_power_grid(text: str) -> tuple[float, ...]:
    """'start:stop:step' (inclusive) or a comma-separated list, in dB."""
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise _UsageError(f"bad power grid {text!r}; expected start:stop:step")
        try:
            start, stop, step = (float(p) for p in pieces)
        except ValueError:
            raise _UsageError(f"bad power grid {text!r}") from None
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise _UsageError(f"bad power grid {text!r}; start, stop and step must be finite")
        if step <= 0 or stop < start:
            raise _UsageError(f"bad power grid {text!r}; need step > 0 and stop >= start")
        # (stop - start) / step overflows to inf for a tiny step; compare before floor().
        points = (stop - start) / step + 1e-9
        if not points < _MAX_POWER_POINTS:
            raise _UsageError(f"bad power grid {text!r}; more than {_MAX_POWER_POINTS} points")
        return tuple(start + i * step for i in range(int(math.floor(points)) + 1))
    try:
        points = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"bad power grid {text!r}") from None
    if not all(math.isfinite(x) for x in points):
        raise _UsageError(f"bad power grid {text!r}; every point must be finite")
    return points


def _build_parser() -> _Parser:
    parser = _Parser(prog="fdnoma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a power sweep and write a CSV")
    sweep.add_argument("--config", required=True, help="path to a key=value config file")
    sweep.add_argument("--mode", choices=("mc", "analytic", "both"), default="mc")
    sweep.add_argument(
        "--schemes",
        default=None,
        help="comma list of scheme ids (default: all for mc, the closed-form "
        f"ones for analytic); known: {', '.join(SCHEMES)}",
    )
    sweep.add_argument("--power", default="0:50:5", help="dB grid, start:stop:step or comma list")
    sweep.add_argument("--relay-power-db", type=float, default=None,
                       help="fix the relay power instead of sweeping it jointly")
    sweep.add_argument("--metrics", default=",".join(KNOWN_METRICS),
                       help=f"comma list out of: {', '.join(KNOWN_METRICS)}")
    sweep.add_argument("--trials", type=int, default=1_000_000)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--output", "-o", default="sweep.csv")
    sweep.set_defaults(func=cmd_sweep)

    check = sub.add_parser("validate", help="run the invariant suite against a config")
    check.add_argument("--config", required=True)
    check.add_argument("--trials", type=int, default=200_000,
                       help="trials for the simulation-vs-analytic checks")
    check.add_argument("--seed", type=int, default=1)
    check.set_defaults(func=cmd_validate)
    return parser


def _select_schemes(args) -> tuple[str, ...]:
    if args.schemes is not None:
        schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    elif args.mode == "mc":
        schemes = SCHEMES
    else:
        schemes = ANALYTIC_SCHEMES
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise _UsageError(f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}")
    if args.mode == "analytic":
        missing = [s for s in schemes if s not in ANALYTIC_SCHEMES]
        if missing:
            raise _UsageError(
                f"no closed forms for {', '.join(missing)}; analytic mode supports "
                f"{', '.join(ANALYTIC_SCHEMES)}"
            )
    return schemes


def _select_metrics(args) -> tuple[str, ...]:
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    for metric in metrics:
        if metric not in KNOWN_METRICS:
            raise _UsageError(f"unknown metric {metric!r}; known: {', '.join(KNOWN_METRICS)}")
    return metrics


def cmd_sweep(args) -> int:
    params = load_config(args.config)
    schemes = _select_schemes(args)
    metrics = _select_metrics(args)
    power_db = parse_power_grid(args.power)
    if args.relay_power_db is not None and not math.isfinite(args.relay_power_db):
        raise _UsageError(f"bad relay power {args.relay_power_db!r}; it must be finite")
    spec = SweepSpec(
        power_db=power_db,
        schemes=schemes,
        metrics=metrics,
        trials=args.trials,
        seed=args.seed,
        relay_power_db=args.relay_power_db,
    )

    rows: list[SweepRow] = []
    notes: list[str] = []
    if args.mode in ("analytic", "both"):
        analytic_schemes = tuple(s for s in spec.schemes if s in ANALYTIC_SCHEMES)
        skipped = [s for s in spec.schemes if s not in ANALYTIC_SCHEMES]
        if skipped:
            notes.append(f"analytic rows skipped for: {', '.join(skipped)} (no closed forms)")
        if analytic_schemes:
            analytic_rows, analytic_notes = analytic_sweep(
                params, replace(spec, schemes=analytic_schemes)
            )
            rows += analytic_rows
            notes += analytic_notes
    if args.mode in ("mc", "both"):
        rows += run_sweep(params, spec)

    rows.sort(key=lambda r: (r.power_db, spec.schemes.index(r.scheme), r.kind != MONTE_CARLO))
    try:
        write_csv(rows, args.output)
    except OSError as exc:
        raise ConfigError("OUTPUT_UNWRITABLE", f"{args.output}: {exc}") from exc

    print(f"wrote {len(rows)} rows to {args.output}")
    for note in notes:
        print(note)
    _print_summary(rows, args.mode)
    return EXIT_OK


def _print_summary(rows: list[SweepRow], mode: str) -> None:
    header = f"{'dB':>5} {'scheme':<18} {'kind':<11} {'rate_u1':>10} {'rate_u2':>10} {'sum':>10} {'out_u1':>10} {'out_u2':>10} {'jain':>7}"
    print(header)
    for row in rows:
        m = row.metrics
        print(
            f"{row.power_db:>5g} {row.scheme:<18} {row.kind:<11} "
            f"{m.rate_u1.value:>10.5g} {m.rate_u2.value:>10.5g} {m.rate_sum.value:>10.5g} "
            f"{m.outage_u1.value:>10.4g} {m.outage_u2.value:>10.4g} {m.jain_index.value:>7.4f}"
        )
    if mode == "both":
        by_key = {}
        for row in rows:
            by_key.setdefault((row.power_db, row.scheme), {})[row.kind] = row.metrics
        print("\nrelative difference |mc - analytic| / |analytic|:")
        for (power_db, scheme), kinds in sorted(by_key.items()):
            if MONTE_CARLO in kinds and ANALYTIC in kinds:
                diffs = []
                for name in ("rate_u1", "rate_u2", "outage_u1", "outage_u2"):
                    estimate = getattr(kinds[MONTE_CARLO], name)
                    mc = estimate.value
                    an = getattr(kinds[ANALYTIC], name).value
                    if math.isnan(mc) or math.isnan(an):
                        diffs.append(f"{name}=nan")
                    elif name.startswith("outage") and mc == 0.0:
                        # No events: a relative difference of 1 says nothing, so show
                        # the count and the one-sided 95% Clopper-Pearson upper bound.
                        n = estimate.trials
                        diffs.append(f"{name}=0/{n},ub95={-math.expm1(math.log(0.05) / n):.4g}")
                    elif an == 0.0:
                        diffs.append(f"{name}={'0' if mc == 0 else 'inf'}")
                    else:
                        diffs.append(f"{name}={abs(mc - an) / abs(an):.3g}")
                print(f"{power_db:>5g} {scheme:<18} rel_diff " + " ".join(diffs))


def _check_alternating_identity(params, trials, seed):
    worst = 0.0
    for m in range(1, 17):
        total = m * math.fsum(
            (-1.0) ** p * math.comb(m - 1, p) / (p + 1) for p in range(m)
        )
        worst = max(worst, abs(total - 1.0))
    return worst <= 1e-12, f"max |sum - 1| = {worst:.2e} for orders 1..16"


def _check_cdf_sanity(params, trials, seed):
    cap = analytic.sinr_cap(params)
    near_hi = 60.0 * params.a1 * params.rho_s
    # Each law is evaluated over its whole grid in one call; each far-user law is built once.
    cases = [
        ("cdf_gamma1_max_u1", lambda x: analytic.cdf_gamma1_max_u1(x, params), near_hi, False),
        ("cdf_gamma1_max_u2", lambda x: analytic.cdf_gamma1_max_u2(x, params), near_hi, False),
        ("cdf_gamma2_max_u1", analytic.far_user_cdf(params, "max_u1"), cap, True),
        ("cdf_gamma2_max_u2", analytic.far_user_cdf(params, "max_u2"), cap, True),
    ]
    for name, cdf, hi, capped in cases:
        values = cdf(np.linspace(0.0, hi, 1000))
        if values[0] != 0.0:
            return False, f"{name}: F(0) = {float(values[0])!r}"
        if np.any(np.diff(values) < -1e-12):
            return False, f"{name}: not nondecreasing"
        if capped and cdf(cap) != 1.0:
            return False, f"{name}: F(cap) != 1"
    return True, "4 distribution functions monotone with correct endpoints"


def _check_closed_form_vs_quadrature(params, trials, seed):
    gaps, details = [], []
    for rule in ("max_u1", "max_u2"):
        name, laws = f"rate_u1_{rule}", analytic.Laws(PowerGrid.at(params), rule)
        (closed,) = analytic.near_user_rates(laws)
        if isinstance(closed, analytic.QuadratureResult) and closed.evaluations:  # the rate is the quadrature
            details.append(f"{name} integrated: its kernel sum's error bound misses the tolerance")
            continue
        (quadrature,) = analytic.near_user_quadratures(laws)
        if isinstance(quadrature, analytic.NonConvergedError):  # near_user_rates' own NonConvergedError is this one
            return False, f"{name}: {quadrature}"
        closed, quadrature = closed.value, quadrature.value
        # Relative above the quadrature's own absolute tolerance, absolute below it.
        gap = abs(closed - quadrature)
        if abs(quadrature) > analytic.QUADRATURE_ABS_TOL:
            gap /= abs(quadrature)
            ok = gap <= analytic.QUADRATURE_REL_TOL
        else:
            ok = gap <= analytic.QUADRATURE_ABS_TOL
        gaps.append(gap)
        if not ok:
            return False, f"{name}: closed {closed!r} vs quadrature {quadrature!r}"
    if gaps:
        details.insert(0, f"max gap {max(gaps):.2e}, relative above {analytic.QUADRATURE_ABS_TOL:g}, absolute below")
    return True, "; ".join(details)


def _check_outage_identity(params, trials, seed):
    z = analytic.zeta(params)
    if math.isinf(z):
        ok = analytic.outage_u1_max_u1(params) == 1.0 and analytic.outage_u1_max_u2(params) == 1.0
        return ok, "threshold infeasible; outage pinned at 1"
    ok = (
        analytic.outage_u1_max_u1(params) == analytic.cdf_gamma1_max_u1(params.a1 * z, params)
        and analytic.outage_u1_max_u2(params) == analytic.cdf_gamma1_max_u2(params.a1 * z, params)
    )
    return ok, f"near-user outage equals its SINR distribution at a1*zeta = {params.a1 * z:.6g}"


# A comparison passes within 4 se, or for an outage count on a binomial tail
# at least as likely as the normal tail beyond 4 se.
_MAX_DEVIATION_SE = 4.0


def _outage_deviation(events: int, trials: int, p: float) -> float:
    """Normal deviate (in se, >= 0) equivalent to the exact binomial tail of `events`.

    The tail is the one on the side of trials * p that `events` lies on.  The
    normal approximation with se from p fails when trials * p is far below 1:
    3 events in 1e6 trials at p = 2.3e-7 are a 0.17% outcome but read 5.8 se.
    The tail sums the pmf from `events` away from the mean, where it only
    falls, in log space, up to 40 nats below its first term.
    """
    # Imported here: statistics loads random, fractions and decimal, which only validate needs.
    from statistics import NormalDist

    p = min(max(p, 0.0), 1.0)
    if p in (0.0, 1.0):
        return 0.0 if events == trials * p else math.inf
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(trials + 1)

    def log_pmf(k: int) -> float:
        return log_n - math.lgamma(k + 1) - math.lgamma(trials - k + 1) + k * log_p + (trials - k) * log_q

    first, terms = log_pmf(events), []
    away = range(events, trials + 1) if events >= trials * p else range(events, -1, -1)
    for k in away:
        term = log_pmf(k) - first
        if term < -40.0:
            break
        terms.append(math.exp(term))
    tail = math.exp(first) * math.fsum(terms)
    return math.inf if tail == 0.0 else max(0.0, -NormalDist().inv_cdf(min(tail, 0.5)))


def _check_mc_vs_analytic(params, trials, seed):
    worst = []
    measured = estimate_metrics(params, ANALYTIC_SCHEMES, trials, seed)
    for scheme in ANALYTIC_SCHEMES:
        (reference,) = closed_form_sets(PowerGrid.at(params), scheme, ("rates", "outage"))
        if isinstance(reference, analytic.NonConvergedError):
            return False, f"{scheme}: {reference}"
        for name in ("rate_u1", "rate_u2", "outage_u1", "outage_u2"):
            estimate, target = getattr(measured[scheme], name), getattr(reference, name).value
            if name.startswith("outage"):
                events = round(estimate.value * trials)
                deviation = _outage_deviation(events, trials, target)
                if deviation > _MAX_DEVIATION_SE:
                    return False, (f"{scheme}/{name}: {events} events in {trials} trials "
                                   f"vs p = {target:.6g}, beyond 4 se on the binomial tail")
            else:
                se = estimate.std_error
                gap = abs(estimate.value - target)
                if gap > _MAX_DEVIATION_SE * se + 1e-12:
                    return False, f"{scheme}/{name}: |{estimate.value:.6g} - {target:.6g}| > 4 se"
                deviation = gap / se if se > 0 else 0.0
            worst.append(deviation)
    return True, f"max deviation {max(worst):.2f} se across {len(worst)} comparisons"


DEFAULT_CHECKS = (
    ("alternating_sum_identity", _check_alternating_identity),
    ("cdf_sanity", _check_cdf_sanity),
    ("closed_form_vs_quadrature", _check_closed_form_vs_quadrature),
    ("outage_cdf_identity", _check_outage_identity),
    ("simulation_vs_analytic", _check_mc_vs_analytic),
)


def cmd_validate(args, checks=DEFAULT_CHECKS) -> int:
    params = load_config(args.config)
    check_run(args.trials, args.seed)
    all_ok = True
    print(f"{'check':<28} {'result':<6} detail")
    for name, fn in checks:
        ok, detail = fn(params, args.trials, args.seed)
        all_ok = all_ok and ok
        print(f"{name:<28} {'PASS' if ok else 'FAIL':<6} {detail}")
    return EXIT_OK if all_ok else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
