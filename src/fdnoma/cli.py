"""Command-line front end: parameter sweeps to CSV and a self-check report.

Exit codes: 0 success, 1 usage error, 2 config/IO error, 3 validation
failure.  Powers are dB-facing here and linear everywhere else.  The
library checks a sweep request as it is made (config.SweepSpec): this
module only splits the flags, and an unknown scheme or metric name, whose
ConfigError codes are _USAGE_CODES, exits 1 as a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import analytic
from .analytic import ANALYTIC_SCHEMES, analytic_sweep
from .config import ConfigError, KNOWN_METRICS, SCHEMES, SweepSpec, check_run, load_config, thresholds
from .montecarlo import estimate_metrics, run_sweep
from .montecarlo import estimate_outage, estimate_rates  # noqa: F401  not called here; perfbench/spans.py wraps the names
from .results import ANALYTIC, MONTE_CARLO, FAMILY_LEVEL, SweepRow, deviation, family_bound, without_power, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


# A ConfigError with one of these codes names a scheme or metric family the flags cannot take.
_USAGE_CODES = {"SCHEME_UNKNOWN", "SWEEP_METRIC_UNKNOWN"}


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
                       help=f"trials for the simulation-vs-analytic check, at least {MIN_TRIALS}")
    check.add_argument("--seed", type=int, default=1)
    check.set_defaults(func=cmd_validate)
    return parser


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _select_schemes(args) -> tuple[str, ...]:
    if args.schemes is not None:
        return _names(args.schemes)
    return SCHEMES if args.mode == "mc" else ANALYTIC_SCHEMES


def cmd_sweep(args) -> int:
    params = load_config(args.config)
    power_db = parse_power_grid(args.power)
    if args.relay_power_db is not None and not math.isfinite(args.relay_power_db):
        raise _UsageError(f"bad relay power {args.relay_power_db!r}; it must be finite")
    spec = SweepSpec(
        power_db=power_db,
        schemes=_select_schemes(args),
        metrics=_names(args.metrics),
        trials=args.trials,
        seed=args.seed,
        relay_power_db=args.relay_power_db,
    )
    skipped = [s for s in spec.schemes if s not in ANALYTIC_SCHEMES]
    if args.mode == "analytic" and skipped:
        raise _UsageError(
            f"no closed forms for {', '.join(skipped)}; analytic mode supports {', '.join(ANALYTIC_SCHEMES)}"
        )

    rows: list[SweepRow] = []
    notes: list[str] = []
    if args.mode in ("analytic", "both"):
        analytic_schemes = tuple(s for s in spec.schemes if s not in skipped)
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
    if mode != "both":
        return
    # Each simulated metric against its closed form, the sweep's comparisons judged together as validate
    # judges its own; the exit code does not depend on them.
    closed = {(row.power_db, row.scheme): row.metrics for row in rows if row.kind == ANALYTIC}
    compared = [(row, name, getattr(row.metrics, name), getattr(closed[row.power_db, row.scheme], name).value)
                for row in rows if row.kind == MONTE_CARLO and (row.power_db, row.scheme) in closed
                for name in ("rate_u1", "rate_u2", "outage_u1", "outage_u2")]
    compared = [c for c in compared if not (math.isnan(c[2].value) or math.isnan(c[3]))]
    if not compared:
        return
    bound, lines, blind = family_bound(len(compared)), {}, []
    for row, name, estimate, target in compared:
        z = deviation(name, estimate, target)
        lines.setdefault(f"{row.power_db:>5g} {row.scheme:<18} dev_se", []).append(f"{name}={z:.2f}{'*' * (z > bound)}")
        if estimate.value == 0.0 and without_power(name, target, row.trials, bound):
            blind.append(f"{row.power_db:g} dB {row.scheme}/{name} (mu {target * row.trials:.2g})")
    print(f"\ndeviation |mc - analytic| in se, * past {bound:.2f} (family-wise level {FAMILY_LEVEL:g}, "
          f"{len(compared)} comparisons):")
    for label, shown in lines.items():
        print(f"{label} {' '.join(shown)}")
    if blind:
        print(f"no power, as 0 events pass: {', '.join(blind)}")


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
    # Each scheme's laws are its one set's cached laws, which the next two checks read too; each
    # law is evaluated over its whole grid in one call.
    for scheme in ANALYTIC_SCHEMES:
        laws = analytic._one_set(params, scheme)
        cases = (("near-user", laws.near_cdf, near_hi, False), ("far-user", laws.far_cdf, cap, True))
        for name, cdf, hi, capped in cases:
            values = cdf(np.linspace(0.0, hi, 1000))  # its last point is hi exactly
            if values[0] != 0.0:
                return False, f"{scheme} {name} F(0) = {float(values[0])!r}"
            if np.any(np.diff(values) < -1e-12):
                return False, f"{scheme} {name} F not nondecreasing"
            if capped and values[-1] != 1.0:
                return False, f"{scheme} {name} F(cap) != 1"
    return True, "4 distribution functions monotone with correct endpoints"


def _check_closed_form_vs_quadrature(params, trials, seed):
    gaps, details = [], []
    for scheme in ANALYTIC_SCHEMES:
        name, laws = f"rate_u1 of {scheme}", analytic._one_set(params, scheme)
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
    # The near user decodes the far-user symbol at SINR a2 X / (a1 X + 1) and its own at a1 X, so its
    # outage is the larger of its SINR law F at theta1 and at a1 theta2 / (a2 - a1 theta2), or 1 where
    # theta2 reaches the a2/a1 cap.
    (theta1, theta2), a1, a2 = thresholds(params), params.a1, params.a2
    feasible, worst = theta2 < a2 / a1, 0.0
    for scheme in ANALYTIC_SCHEMES:
        laws = analytic._one_set(params, scheme)
        (outage,) = analytic.outages(laws)[0]
        expected = laws.near_cdf(np.array([theta1, a1 * theta2 / (a2 - a1 * theta2)])).max() if feasible else 1.0
        gap = abs(outage - expected)
        if gap > 1e-12 * expected:
            return False, f"{scheme}: near-user outage {outage!r}, expected {float(expected)!r}"
        worst = max(worst, gap / expected if expected else 0.0)
    if not feasible:
        return True, "threshold infeasible; outage pinned at 1"
    return True, f"near-user outage = max F at theta1 and a1 theta2 / (a2 - a1 theta2), within {worst:.1e} relative"


# The fewest trials validate judges.  A rate's deviation reads its gap over its sample se as a normal
# deviate, which holds only for enough trials: on the default config, 50,000 seeds each, the check failed
# correct code at 0.11% of them with 500 trials, 0.094% with 1,000 and 0.064% with 2,000, against the
# stated FAMILY_LEVEL of 0.1%; with 1 trial every rate's se is 0, and it always failed.
MIN_TRIALS = 2_000


def _check_mc_vs_analytic(params, trials, seed):
    # An outage that passes even at zero events cannot show a closed form too high: it is named.
    names = ("rate_u1", "rate_u2", "outage_u1", "outage_u2")
    bound, worst, blind = family_bound(len(ANALYTIC_SCHEMES) * len(names)), [], []
    measured = estimate_metrics(params, ANALYTIC_SCHEMES, trials, seed)
    for scheme in ANALYTIC_SCHEMES:
        (reference,) = analytic.metric_sets(analytic._one_set(params, scheme), ("rates", "outage"))
        if isinstance(reference, analytic.NonConvergedError):
            return False, f"{scheme}: {reference}"
        for name in names:
            estimate, target = getattr(measured[scheme], name), getattr(reference, name).value
            z, outage = deviation(name, estimate, target), name.startswith("outage")
            if z > bound:
                shown = (f"{round(estimate.value * trials)} events in {trials} trials vs p = {target:.6g}" if outage
                         else f"{estimate.value:.6g} vs {target:.6g}")
                return False, f"{scheme}/{name}: {shown}, {z:.2f} se > {bound:.2f}"
            if without_power(name, target, trials, bound):
                blind.append(f"{scheme}/{name} (mu {target * trials:.2g})")
            worst.append(z)
    detail = f"max deviation {max(worst):.2f} se across {len(worst)} comparisons, each allowed {bound:.2f} se"
    unseen = f"; no power, as 0 events pass: {', '.join(blind)}" if blind else ""
    return True, f"{detail} (family-wise level {FAMILY_LEVEL:g}){unseen}"


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
    if args.trials < MIN_TRIALS:
        raise ConfigError("TRIALS_TOO_FEW", f"validate judges {MIN_TRIALS} trials or more, got {args.trials}")
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
    except (_UsageError, ConfigError) as exc:
        usage = not isinstance(exc, ConfigError) or exc.code in _USAGE_CODES
        print(f"{'usage' if usage else 'config'} error: {exc}", file=sys.stderr)
        return EXIT_USAGE if usage else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
