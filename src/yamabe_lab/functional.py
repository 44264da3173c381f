"""Yamabe quotients: the Sobolev constant, Aubin bubbles, exterior domains.

Bubbles are centered at the pole, where the warped metric is exactly
radial, so every quantity is a one-dimensional quadrature with no
normal-coordinate approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import (area_weight, conformal_coupling, critical_exponent,
                        sphere_volume)
from .errors import DomainError, GridResolutionError, StabilizationError
from .manifold import MetricProfile
from .radial import RadialField, RadialGrid, lp_norm, yamabe_energy


def lambda_constant(n: int) -> float:
    """Best Sobolev constant on R^n: n(n-2)/4 * omega_n^{2/n}."""
    if n < 3:
        raise DomainError(f"dimension must be >= 3, got {n}")
    return n * (n - 2) / 4.0 * sphere_volume(n) ** (2.0 / n)


@dataclass(frozen=True)
class QuotientReport:
    """One evaluated quotient Q_s = E / ||.||_s^2."""

    domain: str
    s: float
    energy: float
    norm: float
    quotient: float


@dataclass(frozen=True)
class BubbleSpec:
    """Aubin-bubble test function data: scale alpha, cutoff radius eps."""

    alpha: float
    eps: float

    def __post_init__(self):
        if not 0 < self.alpha <= self.eps:
            raise DomainError(
                f"need 0 < alpha <= eps, got alpha={self.alpha}, eps={self.eps}")


def bubble_values(n: int, alpha: float, r) -> np.ndarray:
    """u_alpha(r) = (alpha / (alpha^2 + r^2))^{(n-2)/2}."""
    r = np.asarray(r, dtype=float)
    return (alpha / (alpha**2 + r**2)) ** ((n - 2) / 2.0)


def _cutoff(r, eps):
    """C^1 radial cutoff: 1 on [0, eps], 0 beyond 2 eps."""
    r = np.asarray(r, dtype=float)
    t = np.clip((r - eps) / eps, 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(math.pi * t))


# Nodes required inside r <= alpha for the quotient to be trusted, and
# nodes per alpha of the default grid.
_MIN_NODES_IN_ALPHA = 16
_BUBBLE_OVERSAMPLE = 64


def bubble_quotient(profile: MetricProfile, spec: BubbleSpec,
                    N: int | None = None) -> QuotientReport:
    """Critical quotient Q_p of the cut-off bubble eta u_alpha centered at
    the pole."""
    if 2.0 * spec.eps > profile.r_max:
        raise DomainError(
            f"cutoff support 2 eps = {2 * spec.eps} exceeds r_max")
    s = critical_exponent(profile.n)
    r_out = 2.0 * spec.eps
    required = int(math.ceil(_MIN_NODES_IN_ALPHA * r_out / spec.alpha))
    if N is None:
        N = max(4096,
                int(math.ceil(_BUBBLE_OVERSAMPLE * r_out / spec.alpha)))
    elif N < required:
        raise GridResolutionError(
            f"N = {N} leaves fewer than {_MIN_NODES_IN_ALPHA} nodes inside "
            f"r <= alpha; need N >= {required}", required_n=required)
    grid = RadialGrid(j=r_out, N=N)
    phi = _cutoff(grid.nodes, spec.eps) * bubble_values(profile.n, spec.alpha,
                                                        grid.nodes)
    phi[-1] = 0.0
    field = RadialField(grid, phi, boundary="dirichlet")
    energy = yamabe_energy(field, profile)
    norm = lp_norm(field, s, profile)
    return QuotientReport(domain=f"ball:{r_out:g}", s=float(s),
                          energy=energy, norm=norm,
                          quotient=energy / norm**2)


@dataclass(frozen=True)
class ExteriorEstimate:
    """Stabilized Y(M \\ B_{r_in}) estimate."""

    value: float
    r_in: float
    r_out: float
    s: float
    stabilized: bool
    history: tuple


def cylinder_length(profile: MetricProfile, r_in: float, r_out: float) -> float:
    """Conformal cylinder length of the annulus: S = int_{r_in}^{r_out} dr/f,
    as int r/f dx in x = ln(r/r_in), so that every decade is sampled."""
    if not 0 < r_in < r_out <= profile.r_max:
        raise DomainError(
            f"need 0 < r_in < r_out <= r_max, got [{r_in}, {r_out}]")
    from scipy.integrate import quad

    def integrand(x):
        r = r_in * math.exp(x)
        return r / float(profile.f(r))

    value, _ = quad(integrand, 0.0, math.log(r_out / r_in), limit=200)
    return float(value)


# Cylinder-gauge pseudo-profile: f == 1 (round unit cross-section) on the
# working range s >= _CYL_OFFSET; the linear stub near 0 only satisfies
# the profile axioms and is never sampled.
_CYL_OFFSET = 2.0


def _cylinder_profile(n: int, s_max: float) -> MetricProfile:
    return MetricProfile(
        n=n, r_max=s_max, name="cylinder-gauge", params={},
        f=lambda s: np.minimum(np.asarray(s, dtype=float), 1.0),
        f_prime=lambda s: (np.asarray(s, dtype=float) < 1.0).astype(float),
        f_second=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        c3=0.0)


LENGTH_CAP = 25.0  # longest cylinder segment the exterior solve meshes
_EXTERIOR_NODES_PER_UNIT = 64  # exterior grid nodes per unit length
_EXTERIOR_SOLVER_TOL = 1e-10  # Newton tolerance of the exterior solve


def exterior_quotient(profile: MetricProfile, r_in: float, *,
                      tol_out: float = 1e-3) -> ExteriorEstimate:
    """Estimate the Yamabe constant of the annular exterior of B_{r_in}.

    The critical quotient over radial fields on the annulus
    [r_in, r_max] is conformally invariant, and the annulus is conformal
    to the product cylinder segment of length L = int dr/f.  The value
    therefore depends only on n and L, and tends to Lambda(n) as L grows
    (the round cylinder is conformal to R^n minus a point).  One
    quadrature gives L_total over [r_in, r_max]; one warm-started
    subcritical continuation on the cylinder segment of length
    L = min(L_total, LENGTH_CAP), with
    max(64, ceil(_EXTERIOR_NODES_PER_UNIT L)) nodes, gives the value.
    Minimizing in the cylinder gauge keeps the optimizer at unit scale
    however stretched the annulus is in r.

    Segments longer than ``LENGTH_CAP`` are truncated to it: the value is
    monotone decreasing and exponentially converged in the length by
    then, while much longer cylinders make the Newton solve nearly
    translation-degenerate.  Truncation keeps the estimate a rigorous
    upper bound (Dirichlet fields on the truncated segment embed in the
    full one).

    The estimate is stabilized when (a) the length reached
    ``LENGTH_CAP``, (b) the value is within ``tol_out`` (relative) of
    the exact limit, value <= Lambda(n) (1 + tol_out), or (c) the
    length has converged in r: the outer half [(r_in + r_max)/2, r_max]
    contributes at most tol_out L_total (finite int dr/f, as on
    hyperbolic space).  Otherwise StabilizationError is raised.
    """
    from .subcritical import continue_to_critical

    n, r_max = profile.n, profile.r_max
    total = cylinder_length(profile, r_in, r_max)
    length = min(total, LENGTH_CAP)
    s_hi = _CYL_OFFSET + length
    N = max(64, int(math.ceil(_EXTERIOR_NODES_PER_UNIT * length)))
    grid = RadialGrid(j=s_hi, N=N, r_lo=_CYL_OFFSET)
    value = continue_to_critical(_cylinder_profile(n, s_hi), grid,
                                 tol=_EXTERIOR_SOLVER_TOL,
                                 critical_polish=False).y_best
    stabilized = (
        total >= LENGTH_CAP
        or value <= lambda_constant(n) * (1.0 + tol_out)
        or cylinder_length(profile, 0.5 * (r_in + r_max), r_max)
        <= tol_out * total)
    if not stabilized:
        raise StabilizationError(
            f"exterior quotient did not stabilize before r_max = {r_max} "
            f"(r_in = {r_in}; L = {total:.6g}, value = {value:.6g})")
    return ExteriorEstimate(value=value, r_in=r_in, r_out=r_max,
                            s=float(critical_exponent(n)), stabilized=True,
                            history=((r_max, value),))


class ScalarLowerBound(NamedTuple):
    """-c(n) ||(R_g)_-||_{L^{n/2}} with a divergence flag for infinite tails."""

    value: float | None
    divergent: bool


# Radius up to which scalar_lower_bound samples uniformly; beyond it the
# samples are geometric, so the pole region stays resolved however far
# out R_out lies (the curvature features of the profile class sit at
# r = O(1)).
_UNIFORM_SPAN = 100.0
_LOWER_BOUND_SAMPLES = 16384


def _lower_bound_samples(R_out: float) -> np.ndarray:
    """Sample radii on [0, R_out]: uniform when R_out <= _UNIFORM_SPAN,
    else half uniform on [0, _UNIFORM_SPAN) and half geometric on
    [_UNIFORM_SPAN, R_out]."""
    if R_out <= _UNIFORM_SPAN:
        return np.linspace(0.0, R_out, _LOWER_BOUND_SAMPLES)
    half = _LOWER_BOUND_SAMPLES // 2
    return np.concatenate([
        np.linspace(0.0, _UNIFORM_SPAN, half, endpoint=False),
        np.geomspace(_UNIFORM_SPAN, R_out, _LOWER_BOUND_SAMPLES - half)])


def scalar_lower_bound(profile: MetricProfile,
                       R_out: float | None = None) -> ScalarLowerBound:
    """Lower bound of Lemma-type: nonpositive, 0 when R_g >= 0."""
    if R_out is None:
        R_out = profile.r_max
    profile.check_radius(R_out)
    n = profile.n
    r = _lower_bound_samples(R_out)
    try:
        curvature = np.asarray(profile.scalar_curvature(r), dtype=float)
    except DomainError:
        # Not finite where the profile overflows float64 (sinh r beyond
        # r ~ 355): the volume density is unbounded there, no bound holds.
        return ScalarLowerBound(value=None, divergent=True)
    negative = np.maximum(-curvature, 0.0)
    fvals = np.asarray(profile.f(r), dtype=float)
    integrand = negative ** (n / 2.0) * fvals ** (n - 1)
    total = area_weight(n) * float(np.trapezoid(integrand, r))
    if total == 0.0:
        return ScalarLowerBound(value=0.0, divergent=False)
    # Tail monitor: the outer decade must decay and contribute little.
    k_tail = int(0.9 * _LOWER_BOUND_SAMPLES)
    tail = area_weight(n) * float(np.trapezoid(integrand[k_tail:], r[k_tail:]))
    growing = integrand[-1] >= integrand[k_tail] and integrand[-1] > 0
    if growing or tail > 0.05 * total:
        return ScalarLowerBound(value=None, divergent=True)
    return ScalarLowerBound(
        value=-conformal_coupling(n) * total ** (2.0 / n), divergent=False)
