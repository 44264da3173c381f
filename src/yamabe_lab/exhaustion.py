"""The exhausting-ball pipeline: Y_j sequence, extension by zero, decay
exponents, boundary bounds, and the non-concentration verdict.

The Moser-iteration cascade itself is never executed; its closed-form
output exponents (beta_0, delta, rho_0, alpha) are evaluated directly and
compared against the empirically fitted decay of the computed fields.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .constants import critical_exponent
from .errors import DomainError, InfeasibleExponentError, MonotonicityError
from .manifold import MetricProfile
from .radial import (RadialField, RadialGrid, load_field_csv, lp_norm,
                     save_field_csv)
from .records import ContinuationResult

# solve_ball and subsolution_check import the solver, which loads
# scipy.linalg, when called: reading a trace (decay) loads neither.

BOUNDARY_LAYER = 0.125  # thickness of U_j = {d(x, boundary) < 1/8}, fixed
_PR_SET_PDEATHSIG = 1  # Linux prctl option: a signal for when the parent ends
_SUBSOLUTION_TOL_REL = 1e-6  # of the largest nonlinear term
_MIN_TAIL_POINTS = 10  # positive nodes a decay-fit window must hold
_WINDOW_HI = 0.95  # decay-fit window ends at _WINDOW_HI * j
_DECAY_SLACK = 0.2  # alpha_fitted >= alpha_predicted - slack passes
_BOUNDARY_RATIO_CAP = 2.0  # max/min of the upper half's boundary maxima
_BOUNDARY_FLOOR = 1e-2  # boundary maxima below this pass outright
# Verdict: sup_(B_R) u_j is stable within a factor _STABLE_BAND (and above
# _POSITIVE_FLOOR); a monotone trend must move by a factor _TREND_FACTOR.
_STABLE_BAND = 2.0
_TREND_FACTOR = 3.0
_POSITIVE_FLOOR = 1e-6


# -- trace -------------------------------------------------------------------


# Relative slack of the Y_j monotonicity check.  It matches the
# demonstrated accuracy of the per-ball estimates (the witness quotient
# of the last solved field lies up to ~3% above Lambda(n) on n = 3 balls);
# the underlying lambda_s values at fixed s are domain-monotone to solver
# precision, and that sharper property is what the test suite checks.
_TOL_MONO_REL = 0.02


@dataclass(frozen=True)
class ExhaustionTrace:
    """One ContinuationResult per ball, in increasing radius.

    ``r_max`` and ``f_radii`` (the profile's f at each radius) record the
    profile the trace was made with, params included, so that a later
    command can refuse a trace of another profile.
    """

    profile_name: str
    n: int
    r_max: float
    f_radii: tuple
    records: tuple

    @property
    def radii(self) -> tuple:
        return tuple(rec.j for rec in self.records)

    @property
    def tol_mono(self) -> float:
        """Slack of the Y_j monotonicity check: _TOL_MONO_REL |Y_{j_1}|."""
        return _TOL_MONO_REL * abs(self.records[0].y)

    def record_for(self, j: float) -> ContinuationResult:
        for rec in self.records:
            if rec.j == j:
                return rec
        raise DomainError(f"trace holds no record for j = {j}")

    @property
    def largest(self) -> ContinuationResult:
        return self.records[-1]


def f_at_radii(profile: MetricProfile, radii) -> tuple:
    """``ExhaustionTrace.f_radii``: the profile's f at each radius."""
    return tuple(float(v) for v in profile.f(np.asarray(radii, dtype=float)))


def _check_radii(radii) -> list:
    """The radii as floats; DomainError unless there are >= 3 of them and
    they strictly increase (the rules of an exhaustion and its trace)."""
    radii = [float(j) for j in radii]
    if len(radii) < 3:
        raise DomainError("exhaustion needs >= 3 radii")
    if radii != sorted(radii) or len(set(radii)) != len(radii):
        raise DomainError("radii must strictly increase")
    return radii


def _usable_cpus() -> int:
    """CPUs this process may run on.  On one, solving a ball in a child
    only adds the fork and the pickling (measured slower in README)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _die_with(parent: int) -> None:
    """In a forked child: on Linux have the kernel SIGKILL this process
    when the forking thread ends, so a caller killed by a signal leaves
    no solve running; exit at once if the caller is already gone."""
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _child_payload(solve, j) -> bytes:
    """Pickled ``(True, solve(j))``, or ``(False, exception)`` for what it
    raised; an exception the parent could not unpickle travels as a
    ChildProcessError holding its type name and message."""
    try:
        return pickle.dumps((True, solve(j)))
    except BaseException as exc:
        try:
            payload = pickle.dumps((False, exc))
            pickle.loads(payload)
            return payload
        except Exception:
            return pickle.dumps((False, ChildProcessError(
                f"ball j = {j} raised {type(exc).__name__}: {exc}")))


def _solve_largest_in_child(solve, radii) -> list:
    """``[solve(j) for j in radii]``, the largest radius in a child process
    made by os.fork while this process solves the others in order.

    The child runs the same code on the same bits and sends its outcome
    back pickled through a pipe; it always ends in os._exit, so it never
    returns into the caller's frames nor flushes their stdio buffers.  The
    child is reaped on every path: when a ball here raises (interrupts
    included) it is killed first; on Linux it is also killed when the
    caller dies of a signal.  A child that dies without a result raises
    ChildProcessError.  When fork fails (no process ids or memory left,
    or a sandbox that refuses it) every ball is solved here in order.
    """
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return [solve(j) for j in radii]
    if pid == 0:
        code = 1
        try:
            _die_with(parent)
            os.close(read_fd)
            payload = _child_payload(solve, radii[-1])
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            records = [solve(j) for j in radii[:-1]]
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
        pid = None
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        raise ChildProcessError(f"the process solving ball j = {radii[-1]} "
                                f"exited with code {code} and no result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return records + [value]


def solve_ball(profile: MetricProfile, j: float, nodes_per_unit: int = 128,
               **solver_options) -> ContinuationResult:
    """Continuation solve on the ball of radius ``j`` of an exhaustion, on
    ``nodes_per_unit`` cells per unit radius (at least 64 cells)."""
    from .subcritical import continue_to_critical

    grid = RadialGrid(j=j, N=max(64, int(round(nodes_per_unit * j))))
    result = continue_to_critical(profile, grid, **solver_options)
    if result.field is None:
        raise DomainError(f"continuation on j = {j} produced no field")
    return result


def run_exhaustion(profile: MetricProfile, radii, nodes_per_unit: int = 128,
                   **solver_options) -> ExhaustionTrace:
    """Continuation solve on every ball of the exhaustion.

    With os.fork and at least two usable CPUs the largest ball is solved
    in a child process while this one solves the others
    (``_solve_largest_in_child``); otherwise every ball is solved here in
    order.  Both give the same bits.

    Raises MonotonicityError when the Y_j sequence increases by more than
    the trace's tol_mono.
    """
    radii = _check_radii(radii)
    profile.check_radius(radii[-1])

    def solve(j: float) -> ContinuationResult:
        return solve_ball(profile, j, nodes_per_unit, **solver_options)

    if hasattr(os, "fork") and _usable_cpus() >= 2:
        records = _solve_largest_in_child(solve, radii)
    else:
        records = [solve(j) for j in radii]
    trace = ExhaustionTrace(profile_name=profile.name, n=profile.n,
                            r_max=float(profile.r_max),
                            f_radii=f_at_radii(profile, radii),
                            records=tuple(records))
    for prev, cur in zip(records, records[1:]):
        if cur.y > prev.y + trace.tol_mono:
            raise MonotonicityError(
                f"Y_j increased from {prev.y:.6f} (j={prev.j}) to "
                f"{cur.y:.6f} (j={cur.j}) beyond tol {trace.tol_mono:.2e}")
    return trace


# -- subsolution check for the extension by zero -----------------------------


@dataclass(frozen=True)
class SubsolutionReport:
    max_violation: float
    tol: float
    passed: bool
    worst_radius: float | None  # the largest violation's node, if failed
    s_checked: float
    lam_checked: float


def subsolution_check(trace: ExhaustionTrace, j: float,
                      profile: MetricProfile) -> SubsolutionReport:
    """Weak-inequality check for u_j extended by zero to all of M.

    Tests against the hat function of every node: violation_k =
    <grad u, grad hat_k> + c(n) <R u, hat_k> - lam <u^{s-1}, hat_k> must
    stay below tol (nonpositive up to the solver residual).  On the nodes
    0 .. N-1 of the ball's grid that is the ball operator's weak residual.
    The hat at j meets u only through the last cell's stiffness,
    off_{N-1} u_{N-1}: the boundary kink, with the good sign.  Every hat
    from j + h on meets only zeros and gives 0, so the ball's own grid
    holds the whole check.

    The inequality is checked for the equation the stored field actually
    solves: the critical one (s = p, lam = Y_j) when the critical solve
    was attained, otherwise the last subcritical one, with the
    multiplier rescaled for the field's L^p renormalization
    (u -> c u turns the multiplier into lam c^{2-s}).
    """
    from .subcritical import DiscreteOperator

    rec = trace.record_for(j)
    p = critical_exponent(profile.n)
    if rec.y_critical is not None:
        s_eq, lam_eq = p, rec.y_critical
    else:
        if not rec.schedule:
            raise DomainError(f"record j = {j} holds no solved equation")
        s_eq = rec.schedule[-1]
        norm_s = lp_norm(rec.field, s_eq, profile)
        lam_eq = rec.lam_values[-1] * norm_s ** (2.0 - s_eq)
    grid = rec.field.grid
    op = DiscreteOperator(profile, grid)
    u = rec.field.values[:-1]
    _, residual = op.residual(u, s_eq, lam_eq)
    weak = np.append(residual, (op.off[-1] * u[-1], 0.0))
    scale = max(1.0, float(np.max(np.abs(lam_eq) * op.weights()
                                  * np.abs(u) ** (s_eq - 1.0))))
    tol = _SUBSOLUTION_TOL_REL * scale
    k = int(np.argmax(weak))
    passed = bool(weak[k] <= tol)
    # A failing k is at most N: the last entry, 0, cannot exceed tol.
    return SubsolutionReport(
        max_violation=float(weak[k]), tol=tol, passed=passed,
        worst_radius=None if passed else float(grid.nodes[k]),
        s_checked=float(s_eq), lam_checked=float(lam_eq))


# -- Step-2 exponent bookkeeping ---------------------------------------------


@dataclass(frozen=True)
class ExponentReport:
    """The decay-exponent record (beta_0, delta, rho_0, alpha)."""

    n: int
    y: float
    y_inf: float
    rho: float
    beta0: float
    delta: float
    rho0: float
    alpha_predicted: float

    def __post_init__(self):
        if not 1.0 < self.beta0 < self.n / (self.n - 2):
            raise InfeasibleExponentError(
                f"beta0 = {self.beta0} outside (1, n/(n-2))")
        if not 0.0 < self.delta < 1.0:
            raise InfeasibleExponentError(f"delta = {self.delta} outside (0,1)")


_BETA_CAP_GUARD = 1.0 - 1e-9


def beta0_select(n: int, c0y: float) -> float:
    """Largest admissible beta_0 with beta_0^2 c0y < 1, < n/(n-2)."""
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    cap = n / (n - 2) * _BETA_CAP_GUARD
    if c0y <= 0.0:
        return cap  # every beta_0 is admissible; take the sharpest
    if c0y >= 1.0:
        raise InfeasibleExponentError(
            f"condition (1.2) margin exhausted: C0 Y = {c0y} >= 1")
    return min(math.sqrt(1.0 / c0y), cap)


def exponent_formulas(n: int, Y: float, Y_inf: float,
                      rho: float) -> ExponentReport:
    """Closed-form decay exponents for volume growth V <= C r^{n+rho}."""
    if Y_inf <= 0.0:
        raise InfeasibleExponentError(
            f"hypothesis Y_inf > 0 violated: Y_inf = {Y_inf}")
    if Y >= Y_inf:
        raise InfeasibleExponentError(
            f"hypothesis Y < Y_inf violated: Y = {Y}, Y_inf = {Y_inf}")
    if Y > 0.0:
        beta0 = beta0_select(n, Y / Y_inf)
        rho0 = min(n * math.sqrt(Y_inf / Y) - n, 2.0 * n / (n - 2))
        alpha = (n - 2) / 2.0 - (n - 2) * rho / (2.0 * n * (beta0 - 1.0))
    else:
        # Y <= 0: the nonlinear term drops and rho_0 = 2n/(n-2) directly.
        beta0 = beta0_select(n, 0.0)
        rho0 = 2.0 * n / (n - 2)
        alpha = (n - 2) * (2.0 * n - rho * (n - 2)) / (4.0 * n)
    if rho >= rho0:
        raise InfeasibleExponentError(
            f"hypothesis rho < rho_0 violated: rho = {rho}, rho_0 = {rho0}")
    delta = (n - 2) * beta0 / (n * beta0 - 2.0)
    return ExponentReport(n=n, y=Y, y_inf=Y_inf, rho=rho, beta0=beta0,
                          delta=delta, rho0=rho0, alpha_predicted=alpha)


# -- empirical decay ---------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    alpha_fitted: float
    residual: float
    window: tuple
    n_points: int
    alpha_predicted: float | None = None
    passed: bool | None = None


def fit_tail_exponent(field: RadialField, r_lo: float, r_hi: float):
    """Least-squares power-law exponent of u on [r_lo, r_hi] (negated)."""
    r, u = field.grid.nodes, field.values
    mask = (r >= r_lo) & (r <= r_hi) & (u > 0)
    if int(np.sum(mask)) < _MIN_TAIL_POINTS:
        raise DomainError(
            f"window [{r_lo:.3g}, {r_hi:.3g}] holds {int(np.sum(mask))} "
            f"positive nodes, need >= {_MIN_TAIL_POINTS}")
    x, y = np.log(r[mask]), np.log(u[mask])
    coeffs, res, *_ = np.polyfit(x, y, 1, full=True)
    rms = math.sqrt(float(res[0]) / len(x)) if len(res) else 0.0
    return -float(coeffs[0]), rms, int(np.sum(mask))


def decay_fit(trace: ExhaustionTrace, window_frac: float = 0.5,
              alpha_predicted: float | None = None) -> DecayFit:
    """Fit the tail decay exponent of the largest-j field.

    The window is [window_frac * j, _WINDOW_HI * j]; nonpositive tail
    values shrink it automatically.  The comparison against
    alpha_predicted is one-sided: faster empirical decay passes.
    """
    if not 0.0 < window_frac < _WINDOW_HI:
        raise DomainError(f"window_frac must lie in (0, {_WINDOW_HI}), "
                          f"got {window_frac}")
    rec = trace.largest
    r_lo, r_hi = window_frac * rec.j, _WINDOW_HI * rec.j
    alpha, rms, count = fit_tail_exponent(rec.field, r_lo, r_hi)
    passed = None if alpha_predicted is None \
        else bool(alpha >= alpha_predicted - _DECAY_SLACK)
    return DecayFit(alpha_fitted=alpha, residual=rms, window=(r_lo, r_hi),
                    n_points=count, alpha_predicted=alpha_predicted,
                    passed=passed)


# -- Theorem-4.1-style boundary bound ----------------------------------------


@dataclass(frozen=True)
class BoundaryBound:
    values: tuple
    ratio: float
    passed: bool
    floor: float


def boundary_bound(trace: ExhaustionTrace) -> BoundaryBound:
    """Boundedness proxy: boundary-layer maxima must not drift.

    Each ball's maximum is that of its field on r > j - BOUNDARY_LAYER.
    Over the upper half of the radii the max/min ratio must stay below
    ``_BOUNDARY_RATIO_CAP``; tails that are uniformly below
    ``_BOUNDARY_FLOOR`` pass outright (ratios of vanishing tails are
    noise, not growth).
    """
    if not trace.records:
        raise DomainError("empty trace")
    values = []
    for rec in trace.records:
        layer = rec.field.grid.nodes > rec.j - BOUNDARY_LAYER
        values.append(float(np.max(rec.field.values[layer])))
    values = tuple(values)
    upper = values[len(values) // 2:]
    top = max(upper)
    ratio = 1.0 if top <= _BOUNDARY_FLOOR else top / max(min(upper), 1e-300)
    return BoundaryBound(values=values, ratio=float(ratio),
                         passed=bool(ratio <= _BOUNDARY_RATIO_CAP),
                         floor=_BOUNDARY_FLOOR)


# -- non-concentration verdict -----------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str  # converges-positive | concentrates | escapes | inconclusive
    sup_values: tuple
    detail: str


def check_compact_radius(R: float, radii) -> None:
    """DomainError unless the compact ball B_R lies inside every ball."""
    if R >= min(radii):
        raise DomainError(f"compact radius R = {R} must be below min(radii)")


def concentration_verdict(trace: ExhaustionTrace, R: float) -> Verdict:
    """Classify the limit behavior of u_j on the compact ball B_R."""
    if len(trace.records) < 3:
        raise DomainError("verdict needs >= 3 radii")
    check_compact_radius(R, trace.radii)
    sups = []
    for rec in trace.records:
        mask = rec.field.grid.nodes <= R
        sups.append(float(np.max(rec.field.values[mask])))
    sups = tuple(sups)

    largest = trace.largest
    if largest.concentration:
        # The largest ball's continuation stopped on concentration (a
        # grid-scale spike or a failed solve): where its field peaks
        # decides between interior blow-up and escape.
        peak = largest.field.grid.nodes[np.argmax(largest.field.values)]
        if peak <= R:
            return Verdict("concentrates", sups,
                           "per-ball continuation concentrated inside B_R: "
                           + largest.concentration_reason)
        return Verdict("escapes", sups,
                       "per-ball continuation concentrated outside B_R: "
                       + largest.concentration_reason)

    first, last = sups[0], sups[-1]
    diffs = np.diff(sups)
    if last >= first / _STABLE_BAND and last <= first * _STABLE_BAND \
            and min(sups) > _POSITIVE_FLOOR:
        return Verdict("converges-positive", sups,
                       f"sup_(B_R) u_j stable in [{min(sups):.4g}, "
                       f"{max(sups):.4g}]")
    if np.all(diffs <= 0) and last < first / _TREND_FACTOR:
        return Verdict("escapes", sups,
                       "sup_(B_R) u_j decreases toward zero while the "
                       "L^p norm stays 1")
    if np.all(diffs >= 0) and last > first * _TREND_FACTOR:
        return Verdict("concentrates", sups,
                       "sup_(B_R) u_j grows monotonically")
    return Verdict("inconclusive", sups,
                   "trends not monotone; refusing to guess")


# -- trace serialization -----------------------------------------------------


def _fields_except(obj, name: str) -> dict:
    """The dataclass fields of obj, all but ``name``, by name."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.name != name}


def _tuples(entry: dict) -> dict:
    """JSON lists back to the tuples the dataclasses hold."""
    return {key: tuple(value) if isinstance(value, list) else value
            for key, value in entry.items()}


def save_trace(trace: ExhaustionTrace, out_dir) -> Path:
    """Write trace.json plus one field CSV per ball under out_dir.

    The manifest holds the ExhaustionTrace fields; each record entry holds
    the ContinuationResult fields, with the name of its CSV in place of
    ``field``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for rec in trace.records:
        fname = f"field_j{rec.j:g}.csv"
        save_field_csv(rec.field, out / fname)
        records.append(_fields_except(rec, "field") | {"field_file": fname})
    manifest = _fields_except(trace, "records") | {"records": records}
    path = out / "trace.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def load_trace(path) -> ExhaustionTrace:
    """Read a trace manifest written by save_trace (path to trace.json)."""
    path = Path(path)
    if path.is_dir():
        path = path / "trace.json"
    manifest = json.loads(path.read_text())
    try:
        records = [ContinuationResult(field=load_field_csv(
            path.parent / entry.pop("field_file"), boundary="dirichlet"),
            **_tuples(entry)) for entry in manifest["records"]]
        trace = ExhaustionTrace(**_tuples(manifest | {"records": records}))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"{path} does not hold the fields of a trace: "
                          f"{exc}") from None
    try:
        _check_radii(trace.radii)
    except DomainError as exc:
        raise DomainError(
            f"{path} is not an exhaustion trace: {exc}") from None
    return trace
