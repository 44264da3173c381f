"""Yamabe quotients: Aubin bubbles and exterior domains.

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
                        lambda_constant)
from .errors import DomainError, StabilizationError
from .manifold import MetricProfile
from .radial import RadialField, RadialGrid, lp_norm, yamabe_energy


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


# Grid of the bubble quotient on its support [0, 2 eps]: _BUBBLE_OVERSAMPLE
# intervals per alpha, and at least _MIN_BUBBLE_NODES of them.
_BUBBLE_OVERSAMPLE = 64
_MIN_BUBBLE_NODES = 4096


def bubble_quotient(profile: MetricProfile, spec: BubbleSpec) -> float:
    """Critical quotient Q_p of the cut-off bubble eta u_alpha centered at
    the pole."""
    if 2.0 * spec.eps > profile.r_max:
        raise DomainError(
            f"cutoff support 2 eps = {2 * spec.eps} exceeds r_max")
    s = critical_exponent(profile.n)
    r_out = 2.0 * spec.eps
    N = max(_MIN_BUBBLE_NODES,
            int(math.ceil(_BUBBLE_OVERSAMPLE * r_out / spec.alpha)))
    grid = RadialGrid(j=r_out, N=N)
    phi = _cutoff(grid.nodes, spec.eps) * bubble_values(profile.n, spec.alpha,
                                                        grid.nodes)
    phi[-1] = 0.0
    field = RadialField(grid, phi, boundary="dirichlet")
    return yamabe_energy(field, profile) / lp_norm(field, s, profile)**2


@dataclass(frozen=True)
class ExteriorEstimate:
    """Stabilized Y(M \\ B_{r_in}) estimate."""

    value: float
    r_in: float
    r_out: float
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

    # f may overflow to inf far out (sinh r past r ~ 710), where r/f -> 0
    # is the right value.
    with np.errstate(over="ignore"):
        value, _ = quad(integrand, 0.0, math.log(r_out / r_in), limit=200)
    return float(value)


def radial_cylinder_quotient(n: int, length: float) -> float:
    """Minimal radial critical quotient on the round cylinder segment
    [0, length] x S^{n-1}, from the first integral of its Euler-Lagrange
    equation.

    Scaled to -u'' + a u = u^{p-1} with a = ((n-2)/2)^2, the minimizer
    obeys u'^2 = G(u) = C + a u^2 - (2/p) u^p, so that
    length = 2 int_0^m du/sqrt G and
    Q = (|S^{n-1}| 2 int_0^m u^p du/sqrt G)^{2/n}, where the peak m
    solves G(m) = 0.  The unknown is ln(m - m_0), with m_0 =
    (a p/2)^{1/(p-2)} the peak of the infinite cylinder's bubble; C then
    follows from m through expm1 without cancellation.  The quadrature
    splits at u* = a^{1/(p-2)}, the maximum of G: u = sqrt(C/a) sinh z on
    [0, u*] takes the near-logarithmic growth of the length as C -> 0,
    and u = m - (m - u*) y^2 on [u*, m] removes the 1/sqrt endpoint.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    p = critical_exponent(n)
    a = ((n - 2) / 2.0) ** 2
    u_star = a ** (1.0 / (p - 2.0))
    m_0 = (0.5 * a * p) ** (1.0 / (p - 2.0))

    def integral(log_offset: float, k: float) -> float:
        """2 int_0^m u^k du / sqrt G for the peak m = m_0 + e^log_offset."""
        offset = math.exp(log_offset)
        m = m_0 + offset
        c = a * m * m * math.expm1((p - 2.0) * math.log1p(offset / m_0))
        scale, d = math.sqrt(c / a), m - u_star

        def inner(z):
            u = scale * math.sinh(z)
            # G = C cosh^2 z (1 - share), and share <= 2/p on [0, u*]
            share = 2.0 / p * u ** p / (c + a * u * u)
            return u ** k / math.sqrt(a * (1.0 - share))

        def outer(y):
            gap = d * y * y
            u = m - gap
            # (m^p - u^p) / (m - u), and G(u) = gap (2/p slope - a (m + u))
            slope = -m ** p * math.expm1(p * math.log1p(-gap / m)) / gap
            return 2.0 * math.sqrt(d) * u ** k / math.sqrt(
                2.0 / p * slope - a * (m + u))

        z_star = math.asinh(u_star / scale)
        return 2.0 * (
            quad(inner, 0.0, z_star, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            + quad(outer, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0])

    # The length falls from infinity to 0 as the offset grows, and
    # m - m_0 ~ exp(-sqrt(a) length) on long segments.
    lo, hi = -math.sqrt(a) * length, 0.0
    while integral(hi, 0.0) > length:
        hi += 10.0
    while integral(lo, 0.0) < length:
        lo -= 10.0
    log_offset = brentq(lambda x: integral(x, 0.0) - length, lo, hi,
                        xtol=1e-14)
    return (area_weight(n) * integral(log_offset, p)) ** (2.0 / n)


LENGTH_CAP = 40.0  # longest cylinder segment the exterior value is taken on
_TOL_OUT = 1e-3  # relative tolerance of stabilization rules (b) and (c)


def exterior_quotient(profile: MetricProfile, r_in: float) -> ExteriorEstimate:
    """Estimate the Yamabe constant of the annular exterior of B_{r_in}.

    The critical quotient over radial fields on the annulus
    [r_in, r_max] is conformally invariant, and the annulus is conformal
    to the product cylinder segment of length L = int dr/f.  The value
    therefore depends only on n and L, and tends to Lambda(n) as L grows
    (the round cylinder is conformal to R^n minus a point).  One
    quadrature gives L_total over [r_in, r_max], and
    radial_cylinder_quotient(n, min(L_total, LENGTH_CAP)) gives the value.

    Segments longer than ``LENGTH_CAP`` are truncated to it: the value is
    monotone decreasing in the length and within 7e-9 (relative, n = 3)
    of Lambda(n) there.  Truncation keeps the estimate a rigorous upper
    bound (Dirichlet fields on the truncated segment embed in the full
    one).

    The estimate is stabilized when (a) the length reached
    ``LENGTH_CAP``, (b) the value is within ``_TOL_OUT`` (relative) of
    the exact limit, value <= Lambda(n) (1 + _TOL_OUT), or (c) the
    length has converged in r: the outer half [(r_in + r_max)/2, r_max]
    contributes at most _TOL_OUT L_total (finite int dr/f, as on
    hyperbolic space).  Otherwise StabilizationError is raised.
    """
    n, r_max = profile.n, profile.r_max
    total = cylinder_length(profile, r_in, r_max)
    value = radial_cylinder_quotient(n, min(total, LENGTH_CAP))
    stabilized = (
        total >= LENGTH_CAP
        or value <= lambda_constant(n) * (1.0 + _TOL_OUT)
        or cylinder_length(profile, 0.5 * (r_in + r_max), r_max)
        <= _TOL_OUT * total)
    if not stabilized:
        raise StabilizationError(
            f"exterior quotient did not stabilize before r_max = {r_max} "
            f"(r_in = {r_in}; L = {total:.6g}, value = {value:.6g})")
    return ExteriorEstimate(value=value, r_in=r_in, r_out=r_max,
                            stabilized=True, history=((r_max, value),))


class ScalarLowerBound(NamedTuple):
    """-c(n) ||(R_g)_-||_{L^{n/2}} with a divergence flag for infinite tails."""

    value: float | None
    divergent: bool


# Radius up to which scalar_lower_bound samples uniformly; beyond it the
# samples are geometric, so the pole region stays resolved however far
# out r_max lies (the curvature features of the profile class sit at
# r = O(1)).
_UNIFORM_SPAN = 100.0
_LOWER_BOUND_SAMPLES = 16384


def _lower_bound_samples(r_max: float) -> np.ndarray:
    """Sample radii on [0, r_max]: uniform when r_max <= _UNIFORM_SPAN,
    else half uniform on [0, _UNIFORM_SPAN) and half geometric on
    [_UNIFORM_SPAN, r_max]."""
    if r_max <= _UNIFORM_SPAN:
        return np.linspace(0.0, r_max, _LOWER_BOUND_SAMPLES)
    half = _LOWER_BOUND_SAMPLES // 2
    return np.concatenate([
        np.linspace(0.0, _UNIFORM_SPAN, half, endpoint=False),
        np.geomspace(_UNIFORM_SPAN, r_max, _LOWER_BOUND_SAMPLES - half)])


def scalar_lower_bound(profile: MetricProfile) -> ScalarLowerBound:
    """Lower bound of Lemma-type over [0, r_max]: nonpositive, 0 when
    R_g >= 0."""
    n = profile.n
    r = _lower_bound_samples(profile.r_max)
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
