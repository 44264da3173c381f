"""Blow-up rescaling diagnostics against the entire-space solution.

A near-maximum field is rescaled by v(x) = u(x_c + delta x) / m with
m = max u and delta = m^{1 - p/2}; the limit candidate is the closed-form
entire solution of Delta v + Y v^{p-1} = 0 on flat R^n, and the energy
identities that drive the concentration contradiction are checked with
the boundary flux retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .constants import area_weight, critical_exponent, lambda_constant
from .errors import DomainError
from .manifold import MetricProfile, NotAKnotSpline
from .radial import RadialField


def standard_bubble(n: int, Y: float, x) -> np.ndarray | float:
    """Entire positive solution of Delta v + Y v^{p-1} = 0 with v(0) = 1.

    v(x) = (1 + Y |x|^2 / (n(n-2)))^{-(n-2)/2}; needs Y > 0.
    """
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    if Y <= 0:
        raise DomainError(
            f"no positive entire solution of this form for Y = {Y} <= 0")
    x = np.asarray(x, dtype=float)
    out = (1.0 + Y * x**2 / (n * (n - 2))) ** (-(n - 2) / 2.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RescaledField:
    """Samples of the blow-up rescaling around the field's maximum."""

    x: np.ndarray = dc_field(repr=False)
    values: np.ndarray = dc_field(repr=False)
    m: float
    delta: float
    center: float
    window: float
    rho_k: float


# Resampling density of the rescaled window, in samples per unit of x.
_SAMPLES_PER_UNIT = 64


def rescale(u: RadialField, profile: MetricProfile) -> RescaledField:
    """Blow-up rescaling v(x) = u(x_c + delta x)/m around the maximum.

    The maximum must sit off the outer node (boundary blow-up is outside
    the diagnostic's regime).  The window is |x| <= min(5, rho_k / 2),
    where rho_k = (j - x_c) / delta, so delta * window stays within half
    the distance to the outer boundary; a window narrower than one grid
    cell is refused (the field does not resolve the blow-up scale).
    Resampling is cubic, and a window that reaches past the pole is
    reflected evenly through r = 0.  The samples lie in
    [0, 1], with exactly 1 at the center.
    """
    grid, vals = u.grid, u.values
    k = int(np.argmax(vals))
    if k == grid.N:
        raise DomainError("maximum at the boundary: interior blow-up only")
    m = float(vals[k])
    if m <= 0:
        raise DomainError("field maximum must be positive")
    p = critical_exponent(profile.n)
    delta = m ** (1.0 - p / 2.0)
    center = float(grid.nodes[k])
    rho_k = (grid.j - center) / delta if delta > 0.0 else math.inf
    if not math.isfinite(rho_k):
        raise DomainError(
            f"field maximum {m:.3e} is too tall to rescale: delta = "
            f"m^(1 - p/2) = {delta:.3e} leaves rho_k = (j - x_c)/delta "
            f"non-finite")
    window = min(5.0, rho_k / 2.0)
    if delta * window < grid.h:
        raise DomainError(
            f"field maximum {m:.3e} is too narrow for its grid: the window "
            f"delta * {window:g} = {delta * window:.3e} is below one cell "
            f"h = {grid.h:.3e}")
    spline = NotAKnotSpline(grid.nodes, vals)
    x = np.linspace(-window, window,
                    2 * max(8, int(round(_SAMPLES_PER_UNIT * window))) + 1)
    v = spline(np.abs(center + delta * x)) / m
    v[np.argmin(np.abs(x))] = vals[k] / m  # exact 1 at the center node
    return RescaledField(x=x, values=np.clip(v, 0.0, 1.0), m=m, delta=delta,
                         center=center, window=window, rho_k=rho_k)


@dataclass(frozen=True)
class IdentityReport:
    """Energy identity on B_R with the boundary flux retained."""

    grad_energy: float
    mass_term: float
    flux: float
    defect: float
    relative_defect: float
    mass_p: float
    R_ball: float


def energy_identity_check(x, v, n: int, Y: float) -> IdentityReport:
    """Check int_{B_R} |grad v|^2 = Y int_{B_R} v^p + flux(R) on flat R^n.

    ``x``/``v`` are fine radial samples, increasing in x, of an
    entire-solution candidate on [x[0], R] with R = x[-1]; the flux term
    is omega_{n-1} R^{n-1} v(R) v'(R).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape != v.shape or x.size < 32:
        raise DomainError("need matching 1-d sample arrays (>= 32 points)")
    R_ball = float(x[-1])
    p = critical_exponent(n)
    omega = area_weight(n)
    spline = NotAKnotSpline(x, v)
    dv = spline(x, 1)
    grad_energy = omega * float(np.trapezoid(dv**2 * x ** (n - 1), x))
    mass_p = omega * float(np.trapezoid(np.abs(v) ** p * x ** (n - 1), x))
    flux = omega * R_ball ** (n - 1) * float(spline(R_ball)) \
        * float(spline(R_ball, 1))
    defect = grad_energy - Y * mass_p - flux
    scale = max(abs(grad_energy), abs(Y) * mass_p, 1e-300)
    return IdentityReport(grad_energy=grad_energy, mass_term=Y * mass_p,
                          flux=flux, defect=defect,
                          relative_defect=abs(defect) / scale,
                          mass_p=mass_p, R_ball=float(R_ball))


@dataclass(frozen=True)
class ContradictionReport:
    """Both sides of Lambda <= Y (int v^p)^{2/n} with tail extrapolation."""

    lhs: float            # Lambda(n)
    rhs: float            # Y * (extrapolated total mass)^{2/n}
    total_mass: float
    tail_mass: float
    tail_uncertainty: float
    consistent: bool


# Relative tolerance of the contradiction chain Lambda <= Y (int v^p)^{2/n}.
_CONTRADICTION_REL_TOL = 0.02


def contradiction_test(x, v, n: int, Y: float) -> ContradictionReport:
    """Evaluate the concentration-contradiction inequality chain.

    Verdict ``consistent`` means the extrapolated full-space quantities
    satisfy Lambda <= Y (int v^p)^{2/n} within ``_CONTRADICTION_REL_TOL``;
    for the extremal bubble at Y = Lambda the two sides agree.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape != v.shape or x.size < 64:
        raise DomainError("need matching 1-d sample arrays (>= 64 points)")
    p = critical_exponent(n)
    omega = area_weight(n)
    integrand = np.abs(v) ** p * x ** (n - 1)
    core = omega * float(np.trapezoid(integrand, x))

    # Tail fit C x^e with the bubble exponent e = (2-n)p + n - 1; refuse
    # when the samples do not actually decay at a bubble-compatible rate.
    expo = (2 - n) * p + n - 1
    k0 = int(0.8 * x.size)
    tail_x, tail_i = x[k0:], integrand[k0:]
    if np.any(tail_i <= 0) or tail_i[-1] >= tail_i[0]:
        raise DomainError("tail not decaying: extrapolation refused")
    slope = np.polyfit(np.log(tail_x), np.log(tail_i), 1)[0]
    if slope > expo / 2.0:
        raise DomainError(
            f"tail decays like x^{slope:.2f}, too slow for the bubble rate "
            f"x^{expo:.2f}: extrapolation refused")

    def tail_from(k):
        C = integrand[k] / x[k] ** expo
        return -omega * C * x[-1] ** (expo + 1) / (expo + 1)

    tail = tail_from(x.size - 1)
    tail_alt = tail_from(k0)
    total = core + tail
    lhs = lambda_constant(n)
    rhs = Y * total ** (2.0 / n)
    return ContradictionReport(
        lhs=lhs, rhs=rhs, total_mass=total, tail_mass=tail,
        tail_uncertainty=abs(tail - tail_alt),
        consistent=bool(rhs >= lhs * (1.0 - _CONTRADICTION_REL_TOL)))
