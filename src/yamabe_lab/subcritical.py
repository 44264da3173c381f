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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .constants import conformal_coupling, critical_exponent
from .errors import ConvergenceError, DomainError
from .manifold import MetricProfile
from .radial import (RadialField, RadialGrid, lp_norm, midpoint_weights,
                     node_weights, yamabe_energy)
from .records import ContinuationResult

_EIGEN_MAX_ITERS = 200  # inverse iterations of first_eigenpair
_EIGEN_TOL = 1e-13  # its relative eigenvalue tolerance
_PG_ITERS = 400  # Barzilai-Borwein steps of the projected-gradient relocation
_MAX_HALVINGS = 20  # step halvings per Newton line search
_STALL_ITERS = 8  # exhausted line searches in a row that end the retry
_MIN_HALFWIDTH_NODES = 4  # half-max width, in cells, of a grid-scale spike
# Step lengths 2^-k, k = 0.._MAX_HALVINGS, of one line search.
_STEPS = np.ldexp(1.0, -np.arange(_MAX_HALVINGS + 1))


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


class Trial(NamedTuple):
    """One evaluated line-search trial: the normalized point, its Rayleigh
    multiplier, weak residual, odd power |u|^{s-1} sign(u) and strong
    residual norm."""

    u: np.ndarray
    lam: float
    res: np.ndarray
    phi: np.ndarray
    norm: float


class DiscreteOperator:
    """Energy matrix A (tridiagonal, all nodes), quadrature weights W, and
    the discrete functional: energy, L^s constraint, weak residual.

    The operator also owns the work arrays of the solver loop (the trial
    block, the Newton step's banded matrix and right-hand side), so it
    serves one solve at a time.
    """

    def __init__(self, profile: MetricProfile, grid: RadialGrid):
        profile.check_radius(grid.j)
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
        # Unknowns: every node but the outer one, which is dirichlet (the
        # pole keeps its natural condition).
        self._diag_u = diag[:-1]
        self._off_u = off[:-1]
        self._w_u = self.W[:-1]
        # Strong-norm weights: nodes of zero quadrature weight (the pole)
        # enter through the half-interval stiffness mass, so the pole
        # equation is not dropped.
        self._w_strong = self._w_u.copy()
        self._w_strong[self._w_strong == 0.0] = wm[0] * h
        # Work arrays of the solver loop.  The trial blocks, one row per
        # trial of a line search, are made by the first solve that uses
        # them (_trial_blocks), so an operator that only evaluates the
        # functional holds none.
        m = self.n_unknowns
        self._x = self._res = self._phi = self._work = None
        self._col = np.empty((len(_STEPS), 1))
        self._ab = self.banded(np.zeros(m))
        self._rhs = np.empty((m, 2), order="F")
        self._dphi = np.empty(m)

    @property
    def n_unknowns(self):
        return self.grid.N

    def full_values(self, u_unknown):
        return np.append(u_unknown, 0.0)

    def _apply_into(self, x, out, work) -> None:
        """out = A x for a vector x, or for each row of a block x; ``work``
        is scratch of x's shape."""
        np.multiply(self._diag_u, x, out)
        np.multiply(self._off_u, x[..., 1:], work[..., :-1])
        out[..., :-1] += work[..., :-1]
        np.multiply(self._off_u, x[..., :-1], work[..., 1:])
        out[..., 1:] += work[..., 1:]

    def apply(self, u_unknown):
        """A u on the unknown block (dirichlet nodes are zero)."""
        out, work = np.empty((2, len(u_unknown)))
        self._apply_into(u_unknown, out, work)
        return out

    def energy(self, u_unknown) -> float:
        return float(u_unknown @ self.apply(u_unknown))

    def banded(self, shift_diag):
        """(3, m) banded form of A + diag(shift_diag) for LAPACK."""
        m = self.n_unknowns
        ab = np.zeros((3, m))
        ab[1] = self._diag_u + shift_diag
        ab[0, 1:] = self._off_u
        ab[2, :-1] = self._off_u
        return ab

    def weights(self):
        return self._w_u

    def constraint(self, u_unknown, s: float) -> float:
        """sum_i W_i |u_i|^s: the discrete L^s norm to the power s."""
        return float(self._w_u @ np.abs(u_unknown) ** s)

    def _collapsed(self, u_unknown):
        return ConvergenceError("iterate collapsed to zero",
                                last_iterate=self.full_values(u_unknown))

    def _normalize_into(self, x, work, s: float) -> bool:
        """Scale the vector x to unit L^s norm in place; False, with x
        unchanged, if that norm is zero or not finite."""
        np.abs(x, work)
        work **= s
        norm = float(self._w_u @ work) ** (1.0 / s)
        if norm == 0.0 or not math.isfinite(norm):
            return False
        x /= norm
        return True

    def _residual_into(self, x, res, phi, work, s: float,
                       lam: float | None = None):
        """Weak residual A x - lam W phi of the vector x, or of each row of
        the block x, into ``res``, with phi = |x|^{s-1} sign(x), the odd
        extension of t^{s-1}, into ``phi``.  lam defaults to the Rayleigh
        multiplier x^T A x, from the same A x; a block always takes those,
        one per row, and returns them as a list."""
        self._apply_into(x, res, work)
        np.abs(x, phi)
        phi **= s - 1.0
        np.sign(x, work)
        phi *= work
        if x.ndim == 1:
            if lam is None:
                lam = float(x @ res)
            np.multiply(lam, self._w_u, work)
        else:
            lam = [float(row @ ax) for row, ax in zip(x, res)]
            col = self._col[:len(lam)]
            col[:, 0] = lam
            np.multiply(col, self._w_u, work)
        work *= phi
        res -= work
        return lam

    def normalize(self, u_unknown, s: float):
        """u scaled to unit L^s norm; ConvergenceError if that norm is zero
        or not finite."""
        x = np.array(u_unknown, dtype=float)
        if not self._normalize_into(x, np.empty_like(x), s):
            raise self._collapsed(u_unknown)
        return x

    def residual(self, u_unknown, s: float, lam: float | None = None):
        """(lam, A u - lam W |u|^{s-2} u), the weak Euler-Lagrange residual;
        lam defaults to the Rayleigh multiplier u^T A u, from the same A u."""
        res, phi, work = np.empty((3, len(u_unknown)))
        lam = self._residual_into(u_unknown, res, phi, work, s, lam)
        return lam, res

    def strong_norm(self, residual_vector):
        """Discrete L^2 norm of a residual given in weak (weighted) form;
        one norm per row of a 2-D block."""
        squares = np.add.reduce(residual_vector**2 / self._w_strong, -1)
        if residual_vector.ndim == 1:
            return math.sqrt(squares)
        return np.sqrt(squares)

    def _trial_blocks(self) -> None:
        if self._x is None:
            self._x, self._res, self._phi, self._work = np.empty(
                (4, len(_STEPS), self.n_unknowns))

    def _evaluate_point(self, x, res, phi, work, s: float) -> float | None:
        """``normalize`` then ``residual`` of the vector x in place, with its
        residual and odd power |x|^{s-1} sign(x) into ``res`` and ``phi``;
        returns its multiplier, or None, with x unchanged, if its L^s norm
        is zero or not finite."""
        if not self._normalize_into(x, work, s):
            return None
        return self._residual_into(x, res, phi, work, s)

    def _evaluate_block(self, k: int, s: float) -> list:
        """``_evaluate_point`` of rows 0..k-1 of the trial block at once, up
        to the first row whose L^s norm is zero or not finite; returns the
        multipliers of the rows before it.

        The operations of the 1-D path in the same order: elementwise ones
        on the whole block, every reduction on one row in 1-D, so each row
        has the bits of ``_evaluate_point``.  Norms and multipliers enter
        the block as the column ``_col``.
        """
        x, work, col = self._x[:k], self._work[:k], self._col[:k]
        w, inv_s = self._w_u, 1.0 / s
        np.abs(x, work)
        work **= s
        ok = 0
        for power in work:
            norm = float(w @ power) ** inv_s
            if norm == 0.0 or not math.isfinite(norm):
                break
            col[ok] = norm
            ok += 1
        x = x[:ok]
        x /= col[:ok]
        return self._residual_into(x, self._res[:ok], self._phi[:ok],
                                   work[:ok], s)

    def trials(self, s: float, u_unknown, du=None, steps=None,
               block: bool = False):
        """The trial kernel: normalize, residual and strong norm of the
        points u + t du, t in ``steps``, or of u itself when du is None.

        Yields one Trial per point, in order; its arrays are views of row
        k of the operator's work blocks for the k-th point, which the next
        call overwrites.  With ``block`` every point is evaluated before
        the first is yielded, as one (K, m) block; otherwise each point is
        evaluated only when it is asked for.  Both give the bits of
        ``normalize``, ``residual`` and ``strong_norm``.  Reaching a point
        whose L^s norm is zero or not finite raises
        ConvergenceError("iterate collapsed to zero"), as ``normalize``
        does, and the points after it are not evaluated.
        """
        self._trial_blocks()
        x, res, phi = self._x, self._res, self._phi
        if block and du is not None:
            k = len(steps)
            np.multiply(steps[:, None], du, x[:k])
            x[:k] += u_unknown
            lams = self._evaluate_block(k, s)
            norms = self.strong_norm(res[:len(lams)]).tolist()
            for i, (lam, norm) in enumerate(zip(lams, norms)):
                yield Trial(x[i], lam, res[i], phi[i], norm)
            if len(lams) < k:
                raise self._collapsed(x[len(lams)])
            return
        if du is None:  # the one point u itself
            x[0] = u_unknown
            steps = (None,)
        for row, res_row, phi_row, work, step in zip(x, res, phi, self._work,
                                                     steps):
            if du is not None:
                np.multiply(step, du, row)
                row += u_unknown
            lam = self._evaluate_point(row, res_row, phi_row, work, s)
            if lam is None:
                raise self._collapsed(row)
            yield Trial(row, lam, res_row, phi_row, self.strong_norm(res_row))

    def newton_direction(self, trial: Trial, s: float):
        """Newton step du at an accepted trial (u at unit L^s norm) for the
        Euler-Lagrange system bordered by the normalization row."""
        u, lam, phi, w = trial.u, trial.lam, trial.phi, self._w_u
        dphi, ab, rhs = self._dphi, self._ab, self._rhs
        np.abs(u, dphi)
        dphi **= s - 2.0
        dphi *= s - 1.0
        np.multiply(-lam, w, ab[1])
        ab[1] *= dphi
        ab[1] += self._diag_u
        rhs[:, 0] = trial.res
        np.multiply(w, phi, rhs[:, 1])
        np.negative(rhs[:, 1], rhs[:, 1])
        try:
            sol = solve_banded((1, 1), ab, rhs)
        except LinAlgError:
            ab[1] += 1e-10 * (1.0 + np.abs(ab[1]))
            sol = solve_banded((1, 1), ab, rhs)
        x_res, x_lam = sol[:, 0], sol[:, 1]
        g_row = s * w * phi
        denom = float(g_row @ x_lam)
        g_res = self.constraint(u, s) - 1.0
        dlam = ((g_res - float(g_row @ x_res)) / denom) \
            if denom != 0.0 else 0.0
        return -x_res - dlam * x_lam


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
    """Converged minimizer of Q_s on one ball."""

    field: RadialField
    lam: float
    s: float
    residual: float
    iterations: int


def _projected_gradient(op: DiscreteOperator, s: float, u0):
    """Constrained descent warm-up: minimize u^T A u on the L^s sphere.

    Barzilai-Borwein steps with projection onto the nonnegative cone
    (admissible: the ground state is nonnegative); the gradient is the
    weak residual.  Used to relocate a stalled Newton iterate.
    """
    # Rows 0 and 1 of the operator's work blocks hold the iterate and the
    # one before it, in turn: point, gradient, odd power and scratch.
    op._trial_blocks()
    rows = [(op._x[k], op._res[k], op._phi[k], op._work[k]) for k in (0, 1)]
    k = 0
    u, grad, _, _ = rows[k]
    np.maximum(u0, 0.0, out=u)
    if op._evaluate_point(*rows[k], s) is None:
        raise op._collapsed(u)
    step = 1.0 / max(1.0, float(np.max(np.abs(op.diag))))
    u_old = grad_old = None
    for _ in range(_PG_ITERS):
        if u_old is not None:
            du, dg = u - u_old, grad - grad_old
            denom = float(du @ dg)
            if denom > 1e-300:
                step = float(du @ du) / denom
        k = 1 - k
        u_old, grad_old = u, grad
        u, grad, _, _ = rows[k]
        np.multiply(step, grad_old, u)
        np.subtract(u_old, u, u)
        np.maximum(u, 0.0, out=u)
        if op._evaluate_point(*rows[k], s) is None:
            return u_old.copy()
    return u.copy()


def _line_search(op: DiscreteOperator, s: float, u, du, res_norm: float,
                 block: bool) -> Trial:
    """Backtracking on the strong residual norm (Nocedal & Wright 2006,
    sec. 3.1): the first trial u + 2^-k du, k = 0.._MAX_HALVINGS, whose
    norm is below ``res_norm``, else the last one.  The trials are
    evaluated one at a time, or all as one block when ``block``."""
    for trial in op.trials(s, u, du, _STEPS, block):
        if trial.norm < res_norm:
            return trial
    return trial


def solve_subcritical(op: DiscreteOperator, s: float,
                      init: RadialField | None = None, tol: float = 1e-10,
                      max_iters: int = 60) -> SubcriticalSolution:
    """Newton solve of A u = lam W |u|^{s-2} u with sum W |u|^s = 1.

    Accepts 2 < s <= p; s = p is the critical polish of a continuation.
    """
    p = critical_exponent(op.profile.n)
    if not 2.0 < s <= p:
        raise DomainError(f"need 2 < s <= p = {p:.4f}, got s = {s}")

    if init is None:
        _, init = first_eigenpair(op)
    if init.grid != op.grid:
        raise DomainError("init field lives on a different grid")
    u = init.values[:-1].copy()
    if np.max(u) <= 0:
        raise DomainError("init must be positive in the interior")

    def newton_from(u, stall_limit):
        # stall_limit: exhausted line searches in a row that end the run
        # (None: the run may use all max_iters iterations).
        # cur: the iterate as a Trial, its u copied out of the trial block,
        # which the next search overwrites.
        [cur] = op.trials(s, u)
        cur = Trial(cur.u.copy(), *cur[1:])
        iterations = stalled = 0
        exhausted = False
        for iterations in range(1, max_iters + 1):
            if cur.norm <= tol:
                break
            du = op.newton_direction(cur, s)
            # A search that follows one that ran out of halvings mostly
            # runs out too, so it evaluates all its trials as one block.
            trial = _line_search(op, s, cur.u, du, cur.norm, exhausted)
            exhausted = trial.norm >= cur.norm
            if exhausted and cur.norm <= 1e3 * tol:
                break  # stagnation at near-roundoff residual
            stalled = stalled + 1 if exhausted else 0
            if stalled == stall_limit:
                raise ConvergenceError(
                    f"Newton stalled: {stalled} line searches in a row ran "
                    f"out of halvings (residual {cur.norm:.3e}, s = {s})",
                    last_iterate=op.full_values(cur.u))
            cur = Trial(trial.u.copy(), *trial[1:])
        else:
            if cur.norm > tol:
                raise ConvergenceError(
                    f"Newton did not reach tol {tol:.1e} in {max_iters} "
                    f"iterations (residual {cur.norm:.3e}, s = {s})",
                    last_iterate=op.full_values(cur.u))
        return cur.u, cur.lam, cur.norm, iterations

    def run_restarts(u, stall_limit):
        # Newton may land on a sign-changing critical point; restarting
        # from |u| pushes it toward the ground state.  Balls need this:
        # without the restarts, bump3 B_7.4 (128 nodes per unit) fails at
        # s = 4.502802 with negative nodes, and the witness of hyperbolic3
        # B_3.839423 ends 1.4% higher.
        for _ in range(3):
            u, lam, res_norm, iterations = newton_from(u, stall_limit)
            if float(np.min(u)) >= -1e-10 * float(np.max(u)):
                return u, lam, res_norm, iterations
            u = np.abs(u)
        raise ConvergenceError(
            "converged iterate has negative nodes (grid too coarse?)",
            last_iterate=op.full_values(u))

    try:
        u, lam, res_norm, iterations = run_restarts(u, None)
    except ConvergenceError as exc:
        # Newton can stall between energy basins (multi-well profiles);
        # a projected-gradient descent phase relocates the iterate before
        # one retry.  A second failure is reported as-is.  The first run
        # keeps its whole budget, since its last iterate seeds the
        # relocation.  The retry stops once _STALL_ITERS line searches in
        # a row run out of halvings: on the benchmark's ball inputs every
        # retry that got there went on to fail, and the ones that
        # converged had at most three such searches in a row.
        u, lam, res_norm, iterations = run_restarts(_projected_gradient(
            op, s, exc.last_iterate[:-1]), _STALL_ITERS)
    field = RadialField(op.grid, op.full_values(np.maximum(u, 0.0)),
                        boundary="dirichlet")
    return SubcriticalSolution(field=field, lam=lam, s=s,
                               residual=res_norm, iterations=iterations)


# -- continuation to the critical exponent -----------------------------------


def default_schedule(n: int, s_start: float, count: int,
                     eps_s: float) -> list[float]:
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
    is declared when the minimizer narrows to a grid-scale spike (half-max
    width below ``_MIN_HALFWIDTH_NODES`` grid cells) that the
    discretization can no longer represent, or when a solve fails.  On
    concentration the partial results are returned with the flag set;
    this is the expected exit on flat balls.  The returned field has unit
    L^p norm to rounding.
    """
    p = critical_exponent(profile.n)
    schedule = default_schedule(profile.n, s_start=s_start, count=count,
                                eps_s=eps_s)

    op = DiscreteOperator(profile, grid)
    _, init = first_eigenpair(op)
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
        if _half_max_width(current) < spike_width:
            concentration, reason = True, (
                f"minimizer narrowed to a grid-scale spike at s = {s:.6f}")
            break

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
            if _half_max_width(crit.field) < spike_width:
                concentration, reason = True, "critical polish concentrated"
            else:
                y_critical = crit.lam
                final_field = crit.field
                critical_residual = crit.residual
        except ConvergenceError as exc:
            concentration, reason = True, f"critical polish failed: {exc}"

    return ContinuationResult(
        j=grid.j,
        schedule=tuple(float(s) for s in schedule[:len(lam_values)]),
        lam_values=tuple(float(v) for v in lam_values),
        q_p_witness=float(q_p_witness),
        y_critical=y_critical,
        field=final_field,
        concentration=concentration,
        concentration_reason=reason,
        critical_residual=critical_residual,
    )
