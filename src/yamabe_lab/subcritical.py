"""Constrained subcritical minimization and continuation toward s = p.

The discrete problem minimizes the quadratic energy u^T A u over the
constraint sum_i W_i |u_i|^s = 1, where A is the tridiagonal matrix of the
midpoint Dirichlet form plus the c(n) R_g mass.  Newton's method runs on
the Euler-Lagrange system with the multiplier appended as an unknown and
the normalization appended as an equation; each accepted step renormalizes
and resets the multiplier to the Rayleigh value, so lambda = Q_s(u) holds
to round-off throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .constants import conformal_coupling, critical_exponent
from .errors import ConvergenceError, DomainError
from .manifold import MetricProfile
from .radial import (RadialField, RadialGrid, lp_norm, midpoint_weights,
                     node_weights, yamabe_energy)

_EIGEN_MAX_ITERS = 200  # inverse iterations of first_eigenpair
_EIGEN_TOL = 1e-13  # its relative eigenvalue tolerance
_PG_ITERS = 400  # Barzilai-Borwein steps of the projected-gradient relocation
_MAX_HALVINGS = 20  # step halvings per Newton line search
_STALL_ITERS = 8  # exhausted line searches in a row that end the retry
_CONCENTRATION_CAP = 1e3  # running max over initial max that concentrates
_MIN_HALFWIDTH_NODES = 4  # half-max width, in cells, of a grid-scale spike


# -- tridiagonal solve -------------------------------------------------------

_DGTSV, = get_lapack_funcs(("gtsv",), (np.empty(0),))


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded`` for a tridiagonal float64 system.

    The same LAPACK ``dgtsv`` call that scipy makes for (1, 1) bands,
    bound once, with scipy's two checks kept: ``ValueError`` on a
    non-finite entry and ``LinAlgError`` on a singular matrix.  Neither
    ``ab`` nor ``b`` is overwritten.
    """
    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"tridiagonal solve needs (1, 1) bands, "
                         f"got {l_and_u}")
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = _DGTSV(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of dgtsv")
    return x


# -- discrete operator -------------------------------------------------------


class DiscreteOperator:
    """Energy matrix A (tridiagonal, all nodes) and quadrature weights."""

    def __init__(self, profile: MetricProfile, grid: RadialGrid):
        if grid.j > profile.r_max * (1 + 1e-12):
            raise DomainError(
                f"grid radius {grid.j} exceeds r_max {profile.r_max}")
        self.profile = profile
        self.grid = grid
        h = grid.h
        wm = midpoint_weights(grid, profile)
        self.W = node_weights(grid, profile)
        self.curvature = np.asarray(profile.scalar_curvature(grid.nodes),
                                    dtype=float)
        c = conformal_coupling(profile.n)
        diag = np.zeros(grid.N + 1)
        diag[:-1] += wm / h
        diag[1:] += wm / h
        diag += self.W * c * self.curvature
        off = -wm / h
        self.diag, self.off = diag, off
        # Unknowns: dirichlet at the outer node always; at the inner node
        # only for annulus grids (the pole keeps its natural condition).
        self.lo = 0 if grid.is_ball else 1
        self.hi = grid.N  # exclusive
        self._diag_u = diag[self.lo:self.hi]
        self._off_u = off[self.lo:self.hi - 1]
        self._w_u = self.W[self.lo:self.hi]
        # Strong-norm weights: nodes of zero quadrature weight (the pole)
        # enter through the half-interval stiffness mass, so the pole
        # equation is not dropped.
        self._w_strong = self._w_u.copy()
        self._w_strong[self._w_strong == 0.0] = wm[0] * h

    @property
    def n_unknowns(self):
        return self.hi - self.lo

    def full_values(self, u_unknown):
        v = np.zeros(self.grid.N + 1)
        v[self.lo:self.hi] = u_unknown
        return v

    def apply(self, u_unknown):
        """A u on the unknown block (dirichlet nodes are zero)."""
        out = self._diag_u * u_unknown
        out[:-1] += self._off_u * u_unknown[1:]
        out[1:] += self._off_u * u_unknown[:-1]
        return out

    def energy(self, u_unknown) -> float:
        return float(u_unknown @ self.apply(u_unknown))

    def banded(self, shift_diag=None):
        """(3, m) banded form of A (+ optional diagonal shift) for LAPACK."""
        m = self.n_unknowns
        ab = np.zeros((3, m))
        ab[1] = self._diag_u
        if shift_diag is not None:
            ab[1] = ab[1] + shift_diag
        ab[0, 1:] = self._off_u
        ab[2, :-1] = self._off_u
        return ab

    def weights(self):
        return self._w_u

    def strong_norm(self, residual_vector) -> float:
        """Discrete L^2 norm of a residual given in weak (weighted) form."""
        return math.sqrt((residual_vector**2 / self._w_strong).sum())


# -- first Dirichlet eigenpair (inverse iteration) ---------------------------


def first_eigenpair(op: DiscreteOperator):
    """Lowest eigenpair of -Delta + c(n) R_g with dirichlet boundary.

    Shifted inverse iteration on the generalized problem A u = lam W u.
    Returns (lam, RadialField) with the eigenfield positive and
    L^2-normalized.
    """
    c = conformal_coupling(op.profile.n)
    sigma = min(0.0, c * float(np.min(op.curvature))) - 1.0
    w = op.weights()
    ab = op.banded(shift_diag=-sigma * w)
    u = np.ones(op.n_unknowns)
    lam_old = np.inf
    for _ in range(_EIGEN_MAX_ITERS):
        u = solve_banded((1, 1), ab, w * u)
        u /= float(np.sqrt(u @ (w * u))) or 1.0
        lam = op.energy(u) / float(u @ (w * u))
        if abs(lam - lam_old) < _EIGEN_TOL * max(1.0, abs(lam)):
            break
        lam_old = lam
    u = np.abs(u)
    field = RadialField(op.grid, op.full_values(u), boundary="dirichlet")
    norm = lp_norm(field, 2.0, op.profile)
    return lam, field.with_values(field.values / norm)


# -- subcritical Newton solve ------------------------------------------------


@dataclass(frozen=True)
class SubcriticalSolution:
    """Converged minimizer of Q_s on one ball/annulus."""

    field: RadialField
    lam: float
    s: float
    residual: float
    iterations: int


def _odd_power(u, q):
    """|u|^q sign(u): the odd extension of t^q, smooth enough for Newton."""
    return np.sign(u) * np.abs(u) ** q


def _projected_gradient(op: DiscreteOperator, s: float, u0):
    """Constrained descent warm-up: minimize u^T A u on the L^s sphere.

    Barzilai-Borwein steps with projection onto the nonnegative cone
    (admissible: the ground state is nonnegative).  Used to relocate a
    stalled Newton iterate.
    """
    w = op.weights()

    def normalize(u):
        norm = float(w @ u**s) ** (1.0 / s)
        return u / norm if norm > 0 and np.isfinite(norm) else None

    u = normalize(np.maximum(u0, 0.0))
    if u is None:
        raise ConvergenceError("projected gradient got a zero start",
                               last_iterate=op.full_values(np.zeros_like(u0)))
    step = 1.0 / max(1.0, float(np.max(np.abs(op.diag))))
    u_old = grad_old = None
    for _ in range(_PG_ITERS):
        au = op.apply(u)
        lam = float(u @ au)
        grad = au - lam * w * u ** (s - 1.0)
        if u_old is not None:
            du, dg = u - u_old, grad - grad_old
            denom = float(du @ dg)
            if denom > 1e-300:
                step = float(du @ du) / denom
        u_old, grad_old = u, grad
        u_new = normalize(np.maximum(u - step * grad, 0.0))
        if u_new is None:
            return u_old
        u = u_new
    return u


def solve_subcritical(op: DiscreteOperator, s: float,
                      init: RadialField | None = None, tol: float = 1e-10,
                      max_iters: int = 60) -> SubcriticalSolution:
    """Newton solve of A u = lam W |u|^{s-2} u with sum W |u|^s = 1.

    Accepts 2 < s <= p; s = p is the critical polish of a continuation.
    """
    p = critical_exponent(op.profile.n)
    if not 2.0 < s <= p:
        raise DomainError(f"need 2 < s <= p = {p:.4f}, got s = {s}")
    w = op.weights()

    if init is None:
        _, init = first_eigenpair(op)
    if init.grid != op.grid:
        raise DomainError("init field lives on a different grid")
    u = init.values[op.lo:op.hi].copy()
    if np.max(u) <= 0:
        raise DomainError("init must be positive in the interior")

    def normalize(vec):
        norm_s = float(w @ np.abs(vec) ** s) ** (1.0 / s)
        if norm_s == 0.0 or not np.isfinite(norm_s):
            raise ConvergenceError("iterate collapsed to zero",
                                   last_iterate=op.full_values(vec))
        return vec / norm_s

    def rayleigh_and_residual(vec):
        # One A u serves both lam = u^T A u and the weak residual.
        au = op.apply(vec)
        lam = float(vec @ au)
        return lam, au - lam * w * _odd_power(vec, s - 1.0)

    def newton_from(u, stall_limit):
        # stall_limit: exhausted line searches in a row that end the run
        # (None: the run may use all max_iters iterations).
        u = normalize(u)
        lam, res = rayleigh_and_residual(u)
        res_norm = op.strong_norm(res)
        iterations = stalled = 0
        for iterations in range(1, max_iters + 1):
            if res_norm <= tol:
                break
            phi = _odd_power(u, s - 1.0)
            dphi = (s - 1.0) * np.abs(u) ** (s - 2.0)
            ab = op.banded(shift_diag=-lam * w * dphi)
            rhs = np.column_stack([res, -w * phi])
            try:
                sol = solve_banded((1, 1), ab, rhs)
            except LinAlgError:
                ab[1] += 1e-10 * (1.0 + np.abs(ab[1]))
                sol = solve_banded((1, 1), ab, rhs)
            x_res, x_lam = sol[:, 0], sol[:, 1]
            # Bordered system: the normalization row fixes dlam.
            g_row = s * w * phi
            denom = float(g_row @ x_lam)
            g_res = float(w @ np.abs(u) ** s) - 1.0
            dlam = ((g_res - float(g_row @ x_res)) / denom) \
                if denom != 0.0 else 0.0
            du = -x_res - dlam * x_lam

            step = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                u_try = normalize(u + step * du)
                lam_try, res_try = rayleigh_and_residual(u_try)
                norm_try = op.strong_norm(res_try)
                if norm_try < res_norm or step < 2.0**-_MAX_HALVINGS:
                    break
                step /= 2.0
            exhausted = norm_try >= res_norm
            if exhausted and res_norm <= 1e3 * tol:
                break  # stagnation at near-roundoff residual
            stalled = stalled + 1 if exhausted else 0
            if stalled == stall_limit:
                raise ConvergenceError(
                    f"Newton stalled: {stalled} line searches in a row ran "
                    f"out of halvings (residual {res_norm:.3e}, s = {s})",
                    last_iterate=op.full_values(u))
            u, lam, res, res_norm = u_try, lam_try, res_try, norm_try
        else:
            if res_norm > tol:
                raise ConvergenceError(
                    f"Newton did not reach tol {tol:.1e} in {max_iters} "
                    f"iterations (residual {res_norm:.3e}, s = {s})",
                    last_iterate=op.full_values(u))
        return u, lam, res_norm, iterations

    def run_restarts(u, stall_limit=None):
        # Newton may land on a sign-changing critical point (seen on wide
        # annuli); restarting from |u| pushes it toward the ground state.
        for _ in range(3):
            u, lam, res_norm, iterations = newton_from(u, stall_limit)
            if float(np.min(u)) >= -1e-10 * float(np.max(u)):
                return u, lam, res_norm, iterations
            u = np.abs(u)
        raise ConvergenceError(
            "converged iterate has negative nodes (grid too coarse?)",
            last_iterate=op.full_values(u))

    try:
        u, lam, res_norm, iterations = run_restarts(u)
    except ConvergenceError as exc:
        # Newton can stall between energy basins (multi-well profiles);
        # a projected-gradient descent phase relocates the iterate before
        # one retry.  A second failure is reported as-is.  The first run
        # keeps its whole budget, since its last iterate seeds the
        # relocation.  The retry stops once _STALL_ITERS line searches in
        # a row run out of halvings: on the benchmark's ball inputs every
        # retry that got there went on to fail, and the ones that
        # converged had at most three such searches in a row.
        start = np.maximum(np.asarray(exc.last_iterate)[op.lo:op.hi], 0.0)
        if float(np.max(start)) <= 0.0:
            raise
        u, lam, res_norm, iterations = run_restarts(
            _projected_gradient(op, s, start), _STALL_ITERS)
    field = RadialField(op.grid, op.full_values(np.maximum(u, 0.0)),
                        boundary="dirichlet")
    return SubcriticalSolution(field=field, lam=lam, s=s,
                               residual=res_norm, iterations=iterations)


# -- continuation to the critical exponent -----------------------------------


def default_schedule(n: int, s_start: float = 2.5, count: int = 16,
                     eps_s: float = 1e-3) -> list[float]:
    """Geometric schedule s_k -> p (1 - eps_s), increasing and below p."""
    p = critical_exponent(n)
    if not eps_s > 0.0:
        raise DomainError(f"eps_s must be positive, got {eps_s}")
    if not 2.0 < s_start < p * (1 - eps_s):
        raise DomainError(f"need 2 < s_start = {s_start} < p (1 - eps_s) = "
                          f"{p * (1 - eps_s):.6g}")
    if count < 3:
        raise DomainError("schedule needs >= 3 points")
    gap0, gap1 = p - s_start, p * eps_s
    ratio = (gap1 / gap0) ** (1.0 / (count - 1))
    schedule = [p - gap0 * ratio**k for k in range(count)]
    if not schedule[-1] < p:
        raise DomainError(f"eps_s = {eps_s} rounds the last exponent to p")
    return schedule


@dataclass(frozen=True)
class ContinuationResult:
    """Outcome of the schedule s -> p on one ball."""

    schedule: list
    lam_values: list
    y_extrapolated: float = np.nan
    q_p_witness: float = np.nan
    y_critical: float | None = None
    field: RadialField | None = dc_field(repr=False, default=None)
    concentration: bool = False
    concentration_reason: str = ""
    critical_residual: float | None = None

    @property
    def y_best(self) -> float:
        """Critical multiplier when attained; else the extrapolation; else
        the critical-quotient witness of the last field (a rigorous upper
        bound, used when the schedule broke off too early to extrapolate)."""
        if self.y_critical is not None:
            return self.y_critical
        if np.isfinite(self.y_extrapolated):
            return self.y_extrapolated
        return self.q_p_witness


def _half_max_width(field: RadialField) -> float:
    """Distance from the peak to where the field first drops below half max."""
    v, r = field.values, field.grid.nodes
    k = int(np.argmax(v))
    below = np.nonzero(v[k:] < 0.5 * v[k])[0]
    if len(below) == 0:
        return r[-1] - r[k]
    return r[k + below[0]] - r[k]


def continue_to_critical(profile: MetricProfile, grid: RadialGrid,
                         eps_s: float = 1e-3, s_start: float = 2.5,
                         count: int = 16, tol: float = 1e-10,
                         max_iters: int = 60) -> ContinuationResult:
    """Warm-started solves along the schedule, then a critical polish.

    Builds the one DiscreteOperator of (profile, grid) that the
    eigenpair, every schedule step and the polish share.  Concentration
    is declared when the running maximum exceeds ``_CONCENTRATION_CAP``
    times the initial maximum, or when the minimizer narrows to a
    grid-scale spike (half-max width below ``_MIN_HALFWIDTH_NODES`` grid
    cells) that the discretization can no longer represent.  On
    concentration the partial results are returned with the flag set;
    this is the expected exit on flat balls.
    """
    p = critical_exponent(profile.n)
    schedule = default_schedule(profile.n, s_start=s_start, count=count,
                                eps_s=eps_s)

    op = DiscreteOperator(profile, grid)
    _, init = first_eigenpair(op)
    initial_max = float(np.max(init.values)) / lp_norm(init, schedule[0],
                                                       profile)
    cap = _CONCENTRATION_CAP * initial_max
    spike_width = _MIN_HALFWIDTH_NODES * grid.h
    lam_values = []
    concentration, reason = False, ""
    current = init
    for s in schedule:
        try:
            sol = solve_subcritical(op, s, init=current, tol=tol,
                                    max_iters=max_iters)
        except ConvergenceError as exc:
            concentration = True
            reason = f"solver failure at s = {s:.6f}: {exc}"
            break
        current = sol.field
        lam_values.append(sol.lam)
        peak = float(np.max(current.values))
        if peak > cap:
            concentration, reason = True, (
                f"max u = {peak:.3g} exceeded cap x initial max at s = {s:.6f}")
            break
        if _half_max_width(current) < spike_width:
            concentration, reason = True, (
                f"minimizer narrowed to a grid-scale spike at s = {s:.6f}")
            break
    solved = schedule[:len(lam_values)]

    # Extrapolation is only meaningful when the schedule got close to p;
    # a low-s lambda is a gross underestimate of Y, never a stand-in.
    if len(lam_values) >= 3 and p - solved[-1] <= 0.2 * (p - 2.0):
        gaps = p - np.asarray(solved[-3:])
        coeffs = np.polyfit(gaps, lam_values[-3:], 1)
        y_extrapolated = float(coeffs[1])
    else:
        y_extrapolated = np.nan

    q_p_witness = np.nan
    final_field = None
    y_critical = None
    critical_residual = None
    if lam_values:  # current is the last solved field
        norm_p = lp_norm(current, p, profile)
        q_p_witness = yamabe_energy(current, profile) / norm_p ** 2
        final_field = current.with_values(current.values / norm_p)
    if lam_values and not concentration:
        try:
            crit = solve_subcritical(op, p, init=current, tol=tol,
                                     max_iters=max_iters)
            peak = float(np.max(crit.field.values))
            if peak > cap or _half_max_width(crit.field) < spike_width:
                concentration, reason = True, "critical polish concentrated"
            else:
                y_critical = crit.lam
                final_field = crit.field
                critical_residual = crit.residual
        except ConvergenceError as exc:
            concentration, reason = True, f"critical polish failed: {exc}"

    return ContinuationResult(
        schedule=[float(s) for s in solved],
        lam_values=[float(v) for v in lam_values],
        y_extrapolated=y_extrapolated,
        q_p_witness=float(q_p_witness),
        y_critical=y_critical,
        field=final_field,
        concentration=concentration,
        concentration_reason=reason,
        critical_residual=critical_residual,
    )
