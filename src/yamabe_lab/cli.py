"""Command-line surface: config-driven pipelines with JSON-first reports.

Commands: constants | exhaust | decay | bubble | blowup.  Every report
embeds the config hash and package version; reruns of the same config are
byte-identical except for the timestamp field.  Exit codes encode stage
failures (solver breakdowns, bad inputs), never mathematical verdicts —
a failed hypothesis is a result, not an error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_hash, load_config, profile_from_config
from .constants import lambda_constant
from .errors import (ConvergenceError, DomainError, InfeasibleExponentError,
                     MonotonicityError, ProfileError, StabilizationError)

STAGE_ERRORS = (ConvergenceError, DomainError, MonotonicityError, ProfileError,
                StabilizationError, OSError, ValueError)


# -- report plumbing ---------------------------------------------------------


def _envelope(command: str, config: RunConfig, payload: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": asdict(config),
        "config_hash": config_hash(config),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "report": payload,
    }


def _emit(report: dict, out_dir: str | None, name: str) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.json").write_text(text)
    sys.stdout.write(text)


def _parse_csv_floats(text: str, flag: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise DomainError(f"bad {flag} value '{text}': {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{flag} values must be finite, got '{text}'")
    if not values:
        raise DomainError(f"{flag} must list at least one number")
    return values


# Aubin (1976): no domain has Yamabe constant above Lambda(n).  An exterior
# estimate beyond Lambda(n)(1 + AUBIN_TOL) means the radial-only quotient
# is not sharp (a finite conformal length, as on hyperbolic space), so a
# verdict resting on it is inconclusive.
AUBIN_TOL = 0.01
EXTERIOR_ABOVE_AUBIN = "exterior_above_aubin"
INCONCLUSIVE_ABOVE_AUBIN = ("inconclusive: exterior estimate above "
                            "Lambda(n), which Aubin's bound forbids")
# The existence condition asks Y < Y_inf (1 - REQUIRED_MARGIN); the bubble
# test functions are cut off at radius 2 BUBBLE_EPS.
REQUIRED_MARGIN = 0.05
BUBBLE_EPS = 0.5


def _above_aubin(y_inf: float, n: int) -> bool:
    return y_inf > lambda_constant(n) * (1.0 + AUBIN_TOL)


def _y_table(trace) -> list:
    return [{"j": rec.j, "y": rec.y, "concentration": rec.concentration}
            for rec in trace.records]


def _run_trace(profile, config: RunConfig):
    from .exhaustion import run_exhaustion

    sol = config.solver
    return run_exhaustion(profile, config.pipeline.radii,
                          nodes_per_unit=config.grid.nodes_per_unit,
                          s_start=sol.s_start, count=sol.count,
                          eps_s=sol.eps_s, tol=sol.tol,
                          max_iters=sol.max_iters)


# -- commands ----------------------------------------------------------------


def cmd_constants(config: RunConfig, args) -> dict:
    """Y_j table, Y and Y_inf estimates, the Lemma-type chain, and the
    existence-condition verdict with its margin."""
    from .functional import exterior_quotient, scalar_lower_bound

    profile = profile_from_config(config)
    n = config.profile.n
    lam = lambda_constant(n)
    trace = _run_trace(profile, config)
    y_rows = _y_table(trace)
    y_est = trace.largest.y

    exterior_rows = []
    for r_in in config.pipeline.r_in:
        est = exterior_quotient(profile, r_in)
        exterior_rows.append({"r_in": r_in, "value": est.value,
                              "r_out": est.r_out})
    y_inf_est = exterior_rows[-1]["value"]
    lower = scalar_lower_bound(profile)

    slack = 0.02 * lam
    chain = {
        "scalar_lower_bound": lower.value,
        "scalar_bound_divergent": lower.divergent,
        "y_est": y_est,
        "y_inf_est": y_inf_est,
        "lambda": lam,
        "slack": slack,
        "holds": (not lower.divergent
                  and lower.value <= y_est + slack
                  and y_est <= y_inf_est + slack
                  and y_inf_est <= lam + slack),
    }
    margin = (y_inf_est - y_est) / abs(y_inf_est) if y_inf_est else float("nan")
    condition = {
        "margin": margin,
        "required_margin": REQUIRED_MARGIN,
        "holds": bool(y_inf_est > 0
                      and y_est < y_inf_est - REQUIRED_MARGIN
                      * abs(y_inf_est)),
    }
    reason = None
    if _above_aubin(y_inf_est, n):
        condition["holds"] = None
        verdict, reason = INCONCLUSIVE_ABOVE_AUBIN, EXTERIOR_ABOVE_AUBIN
    elif condition["holds"]:
        verdict = "condition holds"
    elif abs(margin) <= REQUIRED_MARGIN:
        verdict = "condition fails: Y = Y_inf within margin"
    else:
        verdict = "condition fails: Y >= Y_inf"
    payload = {
        "lambda": lam,
        "y_table": y_rows,
        "y_est": y_est,
        "exterior": exterior_rows,
        "y_inf_est": y_inf_est,
        "chain": chain,
        "condition": condition,
        "verdict": verdict,
        "reason": reason,
    }
    for row in y_rows:
        print(f"  Y_{row['j']:g} = {row['y']:.6f}"
              f"{'  (concentrating)' if row['concentration'] else ''}",
              file=sys.stderr)
    print(f"  Y = {y_est:.6f}  Y_inf = {y_inf_est:.6f}  "
          f"Lambda = {lam:.6f}  -> {verdict}", file=sys.stderr)
    return payload


def cmd_exhaust(config: RunConfig, args) -> dict:
    """Run the exhaustion, persist the trace, and attach the weak-form,
    boundary, and concentration verdicts."""
    from .exhaustion import (boundary_bound, check_compact_radius,
                             concentration_verdict, save_trace,
                             subsolution_check)

    profile = profile_from_config(config)
    check_compact_radius(config.pipeline.compact_radius,
                         config.pipeline.radii)
    trace = _run_trace(profile, config)
    out_dir = args.out or "."
    manifest = save_trace(trace, out_dir)
    largest = trace.largest
    verdict = concentration_verdict(trace, R=config.pipeline.compact_radius)
    payload = {
        "trace_file": manifest.name,
        "radii": list(trace.radii),
        "y_table": _y_table(trace),
        "final_residual": largest.critical_residual,
        "subsolution": asdict(subsolution_check(trace, largest.j, profile)),
        "boundary_bound": asdict(boundary_bound(trace)),
        "verdict": asdict(verdict),
    }
    print(f"  verdict: {verdict.kind}  final residual: "
          f"{largest.critical_residual}", file=sys.stderr)
    return payload


def cmd_decay(config: RunConfig, args) -> dict:
    """Volume growth, closed-form exponents, and the empirical tail fit,
    combined into one consistency verdict."""
    from .exhaustion import (decay_fit, exponent_formulas, f_at_radii,
                             load_trace)
    from .functional import exterior_quotient
    from .manifold import volume_growth_exponent

    if not args.trace:
        raise DomainError("decay needs --trace PATH (from a prior exhaust run)")
    profile = profile_from_config(config)
    trace = load_trace(args.trace)
    if (trace.profile_name, trace.n) != (profile.name, profile.n):
        raise DomainError(
            f"trace {args.trace} is for profile {trace.profile_name} "
            f"n = {trace.n}, the config for {profile.name} n = {profile.n}")
    if trace.r_max != profile.r_max:
        raise DomainError(
            f"trace {args.trace} is for r_max = {trace.r_max:g}, the config "
            f"for r_max = {profile.r_max:g}")
    if trace.f_radii != f_at_radii(profile, trace.radii):
        raise DomainError(
            f"trace {args.trace} was made with other profile params: its f "
            f"at the radii differs from the config's")
    j_max = trace.radii[-1]
    growth = volume_growth_exponent(profile, (j_max / 2.0, j_max))
    payload = {"volume_growth": growth._asdict()}
    if growth.exponential:
        payload["verdict"] = ("hypothesis fails: exponential volume growth "
                              "(no polynomial rho)")
        return payload
    rho = max(growth.rho, 0.0)
    y_est = trace.largest.y
    y_inf = exterior_quotient(profile, config.pipeline.r_in[-1]).value
    if _above_aubin(y_inf, profile.n):
        payload.update(y_inf_est=y_inf, verdict=INCONCLUSIVE_ABOVE_AUBIN,
                       reason=EXTERIOR_ABOVE_AUBIN)
        return payload
    try:
        report = exponent_formulas(trace.n, y_est, y_inf, rho)
    except InfeasibleExponentError as exc:
        payload["verdict"] = f"hypothesis fails: {exc}"
        return payload
    fit = decay_fit(trace, window_frac=config.pipeline.window_frac,
                    alpha_predicted=report.alpha_predicted)
    payload["exponents"] = asdict(report)
    payload["decay_fit"] = asdict(fit)
    payload["verdict"] = (
        "empirical decay consistent" if fit.passed
        else "empirical decay inconsistent with the predicted exponent")
    print(f"  alpha predicted {report.alpha_predicted:.4f} fitted "
          f"{fit.alpha_fitted:.4f} -> {payload['verdict']}", file=sys.stderr)
    return payload


def cmd_bubble(config: RunConfig, args) -> dict:
    """Cut-off bubble quotients over the alpha list and the excess rate."""
    from .functional import BubbleSpec, bubble_quotient

    profile = profile_from_config(config)
    lam = lambda_constant(config.profile.n)
    alphas = sorted(config.pipeline.alphas, reverse=True)

    rows = []
    for alpha in alphas:
        quotient = bubble_quotient(profile, BubbleSpec(alpha, BUBBLE_EPS))
        rows.append({"alpha": alpha, "quotient": quotient,
                     "excess": quotient - lam})
    excesses = [row["excess"] for row in rows]
    rate = None
    if len(rows) >= 2 and all(e > 0 for e in excesses):
        rate = float(np.polyfit(np.log([r["alpha"] for r in rows]),
                                np.log(excesses), 1)[0])
    payload = {"lambda": lam, "eps": BUBBLE_EPS, "quotients": rows,
               "fitted_rate": rate}
    print(f"  excess rate: {rate}", file=sys.stderr)
    return payload


def cmd_blowup(config: RunConfig, args) -> dict:
    """Rescale a stored field and run the entire-solution diagnostics."""
    from .blowup import (contradiction_test, energy_identity_check, rescale,
                        standard_bubble)
    from .radial import load_field_csv

    if not args.field:
        raise DomainError("blowup needs --field PATH (a stored field CSV)")
    profile = profile_from_config(config)
    n = config.profile.n
    field = load_field_csv(args.field)
    y_value = lambda_constant(n)
    rs = rescale(field, profile)
    reference = standard_bubble(n, y_value, np.abs(rs.x))
    sup_diff = float(np.max(np.abs(rs.values - reference)))
    center = int(np.argmin(np.abs(rs.x)))
    x_half, v_half = rs.x[center:], rs.values[center:]
    payload = {
        "m": rs.m, "delta": rs.delta, "center": rs.center,
        "window": rs.window, "rho_k": rs.rho_k, "y_value": y_value,
        "bubble_sup_difference": sup_diff,
    }
    try:
        payload["energy_identity"] = asdict(energy_identity_check(
            x_half, v_half, n, y_value))
    except DomainError as exc:
        payload["energy_identity"] = {"skipped": str(exc)}
    try:
        payload["contradiction"] = asdict(contradiction_test(
            x_half, v_half, n, y_value))
    except DomainError as exc:
        payload["contradiction"] = {"skipped": str(exc)}
    print(f"  sup |v - bubble| = {sup_diff:.3e}", file=sys.stderr)
    return payload


# Each command with the one flag it reads beyond --config and --out.
_COMMANDS = {
    "constants": (cmd_constants, "radii"),
    "exhaust": (cmd_exhaust, "radii"),
    "decay": (cmd_decay, "trace"),
    "bubble": (cmd_bubble, "alphas"),
    "blowup": (cmd_blowup, "field"),
}
_FLAG_HELP = {
    "radii": "override pipeline radii, CSV",
    "alphas": "override bubble alphas, CSV",
    "trace": "trace.json from a prior exhaust run",
    "field": "field CSV for blow-up diagnostics",
}
# Flags that main turns into pipeline overrides of the same name.
_OVERRIDES = ("radii", "alphas")
_OUT_HELP = "directory for the JSON report (default: stdout only)"
_EXHAUST_OUT_HELP = ("directory for the JSON report, trace.json and the "
                     "field CSVs (default: the report to stdout only, the "
                     "rest to the current directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yamabe-lab",
        description="Numerical laboratory for the Yamabe equation on "
                    "rotationally symmetric model manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flag) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        cmd.add_argument("--config", help="JSON run configuration "
                         "(defaults: flat n=3 pipeline)")
        cmd.add_argument("--out", help=_EXHAUST_OUT_HELP if name == "exhaust"
                         else _OUT_HELP)
        cmd.add_argument(f"--{flag}", help=_FLAG_HELP[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn, flag = _COMMANDS[args.command]
    try:
        config = load_config(args.config) if args.config else RunConfig()
        value = getattr(args, flag)
        if flag in _OVERRIDES and value:
            config = config.with_overrides(
                **{flag: _parse_csv_floats(value, f"--{flag}")})
        payload = fn(config, args)
        _emit(_envelope(args.command, config, payload), args.out,
              args.command)
    except STAGE_ERRORS as exc:
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
