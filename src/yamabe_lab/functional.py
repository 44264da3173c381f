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
from .errors import ConvergenceError, DomainError, StabilizationError
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


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21; Piessens et al. 1983):
# the abscissae on [0, 1] in QUADPACK's order, Kronrod weights, and the
# 10-point Gauss weights, zero at the Kronrod-only abscissae.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208983893880, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.0, 0.066671344308688137593568809893332, 0.0,
       0.149451349150580593145776339657697, 0.0,
       0.219086362515982043995534934228163, 0.0,
       0.269266719309996355091226921569469, 0.0,
       0.295524224714752870173892994651338, 0.0)
# The 21 nodes on [-1, 1] in ascending order, and the Kronrod and Gauss
# weights as the columns of a (21, 2) matrix.
_NODES = np.array([-x for x in _XGK[:-1]] + list(reversed(_XGK)))
_KRONROD = np.array(_WGK[:-1] + tuple(reversed(_WGK)))
_RULES = np.array([_KRONROD, _WG[:-1] + tuple(reversed(_WG))]).T
_EPMACH = float(np.finfo(float).eps)
_ROUNDOFF = 50.0 * _EPMACH
_TINY = float(np.finfo(float).tiny) / _ROUNDOFF
_PANELS = 200  # panel budget of _quad (QUADPACK's `limit`)


def _kronrod_panels(cuts: np.ndarray) -> tuple:
    """The nodes and Kronrod weights of the 21-point rule on the panels
    between consecutive ``cuts``, panel after panel."""
    half = 0.5 * np.diff(cuts)[:, None]
    mid = 0.5 * (cuts[:-1] + cuts[1:])[:, None]
    return (mid + half * _NODES).ravel(), (half * _KRONROD).ravel()


# Fixed panels of radial_cylinder_quotient's integrals.  Where p is not
# an integer, u^p branches at u = 0, which both pieces meet: at z = 0, and
# just past y = 1 on short segments.
# - Inner: cuts at distances below z* for panels of widths 1/4, 1/4, 1/2,
#   1, 2 and then 4, graded toward z*, where the u^p integrand peaks and
#   1/sqrt G bends.  They reach 732, past z* < ln(2 u*) + 373 < 729,
#   which holds wherever m^p is finite and C/a a positive float.  The
#   last panel, [0, w], is split at w/64, w/16 and w/4.
# - Outer: eight panels of y in [0, 1], of widths 1/4, 1/4, 1/4, 1/8,
#   ..., 1/64, 1/64, graded toward y = 1.
_INNER_CUTS = np.concatenate(([0.0, 0.25, 0.5, 1.0, 2.0],
                              np.arange(4.0, 733.0, 4.0)))
_INNER_OFFSETS, _INNER_WEIGHTS = _kronrod_panels(_INNER_CUTS)
_BOTTOM_NODES, _BOTTOM_WEIGHTS = _kronrod_panels(
    np.array([0.0, 1.0 / 64.0, 1.0 / 16.0, 0.25, 1.0]))
_OUTER_NODES, _OUTER_WEIGHTS = _kronrod_panels(
    np.array([0.0, 0.25, 0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375, 1.0]))


def _qk21_panel(half: float, resk: float, resg: float, resabs: float,
                resasc: float) -> tuple:
    """dqk21's (integral, error estimate, resasc) of a panel of half-width
    ``half`` from its Kronrod and Gauss sums and the Kronrod sums of |f|
    and |f - resk/2| on [-1, 1].  The error estimate is the Gauss-Kronrod
    difference scaled by resasc, floored at the roundoff level
    50 eps resabs."""
    width = abs(half)
    resabs *= width
    resasc *= width
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY:
        err = max(_ROUNDOFF * resabs, err)
    return resk * half, err, resasc


def _qk21(f, lo: float, hi: float) -> tuple:
    """dqk21 on [lo, hi]: one call of the vectorized integrand f."""
    half = 0.5 * (hi - lo)
    values = f(half * _NODES + 0.5 * (lo + hi))
    resk, resg = (values @ _RULES).tolist()
    resabs, resasc = (np.abs((values, values - 0.5 * resk)) @ _KRONROD).tolist()
    return _qk21_panel(half, resk, resg, resabs, resasc)


def _qk21_halves(f, lo: float, hi: float) -> tuple:
    """dqk21 on both halves of [lo, hi]: one call of f on their 42 nodes."""
    mid = 0.5 * (lo + hi)
    half1, half2 = 0.5 * (mid - lo), 0.5 * (hi - mid)
    values = f(np.concatenate((half1 * _NODES + 0.5 * (lo + mid),
                               half2 * _NODES + 0.5 * (mid + hi))))
    values = values.reshape(2, 21)
    (resk1, resg1), (resk2, resg2) = (values @ _RULES).tolist()
    abs1, abs2, asc1, asc2 = (np.abs(np.concatenate(
        (values, values - [[0.5 * resk1], [0.5 * resk2]]))) @ _KRONROD).tolist()
    return (_qk21_panel(half1, resk1, resg1, abs1, asc1),
            _qk21_panel(half2, resk2, resg2, abs2, asc2))


def _quad(f, lo: float, hi: float, epsabs: float = 1.49e-8,
          epsrel: float = 1.49e-8) -> float:
    """Adaptive 21-point Gauss-Kronrod quadrature of f over [lo, hi], as
    QUADPACK's dqagse runs it without extrapolation (the tolerances
    default to scipy.integrate.quad's, with at most ``_PANELS`` panels).

    f maps an array of nodes to its values.  While the summed error
    estimate exceeds max(epsabs, epsrel |integral|), the panel with the
    largest estimate is bisected, and its two halves are evaluated in one
    call of f.  The integral is the sum of the panel integrals in
    QUADPACK's list order.  ConvergenceError when ``_PANELS`` panels do
    not meet the tolerance (where QUADPACK warns and returns its
    estimate).
    """
    area, err, resasc = _qk21(f, lo, hi)
    # An estimate equal to resasc is saturated and not trusted.
    if err <= max(epsabs, epsrel * abs(area)) and err != resasc \
            or err == 0.0:
        return area
    panels, areas, errors = [(lo, hi)], [area], [err]
    err_sum = err
    while len(panels) < _PANELS:
        worst = errors.index(max(errors))
        left, right = panels[worst]
        mid = 0.5 * (left + right)
        halves = ((left, mid), (mid, right))
        results = _qk21_halves(f, left, right)
        err_sum += results[0][1] + results[1][1] - errors[worst]
        area += results[0][0] + results[1][0] - areas[worst]
        # The half with the larger error keeps the bisected panel's slot.
        keep = 1 if results[1][1] > results[0][1] else 0
        panels[worst] = halves[keep]
        areas[worst], errors[worst], _ = results[keep]
        panels.append(halves[1 - keep])
        areas.append(results[1 - keep][0])
        errors.append(results[1 - keep][1])
        if err_sum <= max(epsabs, epsrel * abs(area)):
            total = 0.0
            for value in areas:
                total += value
            return total
    raise ConvergenceError(
        f"quadrature over [{lo}, {hi}] did not meet its tolerance in "
        f"{_PANELS} panels (error estimate {err_sum:.3g}, integral {area:.6g})")


def _brent(f, lo: float, hi: float, f_lo: float, f_hi: float,
           xtol: float) -> float:
    """Root of f in the bracket [lo, hi] by Brent's method, step for step
    as scipy.optimize.brentq runs it with its default rtol (4 eps) and
    maxiter (100), from the already computed values f_lo = f(lo) and
    f_hi = f(hi)."""
    rtol, maxiter = 4.0 * _EPMACH, 100
    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(f"f({lo}) and f({hi}) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {maxiter} "
                           f"steps (bracket [{lo}, {hi}])")


def cylinder_length(profile: MetricProfile, r_in: float, r_out: float) -> float:
    """Conformal cylinder length of the annulus: S = int_{r_in}^{r_out} dr/f,
    as int r/f dx in x = ln(r/r_in), so that every decade is sampled."""
    if not 0 < r_in < r_out <= profile.r_max:
        raise DomainError(
            f"need 0 < r_in < r_out <= r_max, got [{r_in}, {r_out}]")

    def integrand(x):
        r = r_in * np.exp(x)
        return r / profile.f(r)

    # f may overflow to inf far out (sinh r past r ~ 710), where r/f -> 0
    # is the right value.  The tolerance is relative only, so that a
    # length below quad's default epsabs (1.49e-8) keeps its digits.
    with np.errstate(over="ignore"):
        return _quad(integrand, 0.0, math.log(r_out / r_in), epsabs=0.0)


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
    Both pieces take the 21-point Kronrod rule on fixed panels (graded
    toward z* and toward 0 on [0, z*], toward 1 on y in [0, 1]), so each
    length evaluation calls each integrand once.

    A segment longer than 80/sqrt(a) is evaluated at that length: there
    Q - Lambda(n) ~ C exp(-sqrt(a) length) is far below rounding, and
    beyond it m - m_0 would underflow (near length 1500 at n = 3).
    DomainError unless 0 < length < inf, and where m^p overflows on very
    short segments (length ~ 1e-100 at n = 3).
    """
    if not 0.0 < length < math.inf:
        raise DomainError(f"need 0 < length < inf, got {length}")
    p = critical_exponent(n)
    a = ((n - 2) / 2.0) ** 2
    length = min(length, 80.0 / math.sqrt(a))
    u_star = a ** (1.0 / (p - 2.0))
    m_0 = (0.5 * a * p) ** (1.0 / (p - 2.0))

    def beyond_float64(log_offset: float) -> DomainError:
        return DomainError(
            f"length {length} is beyond float64: the integrals at the peak "
            f"m = m_0 + exp({log_offset:.6g}) do not fit")

    def integral(log_offset: float, k: float) -> float:
        """2 int_0^m u^k du / sqrt G for the peak m = m_0 + e^log_offset."""
        try:
            offset = math.exp(log_offset)
            m = m_0 + offset
            m_p = m ** p
            c = a * m * m * math.expm1((p - 2.0) * math.log1p(offset / m_0))
        except OverflowError:
            c = math.inf
        if not 0.0 < c < math.inf:
            raise beyond_float64(log_offset)
        scale, d = math.sqrt(c / a), m - u_star

        def inner(z):
            u = scale * np.sinh(z)
            # G = C cosh^2 z (1 - share), and share <= 2/p on [0, u*]
            share = 2.0 / p * u ** p / (c + a * u * u)
            root = np.sqrt(a * (1.0 - share))
            return 1.0 / root if k == 0.0 else u ** k / root

        def outer(y):
            gap = d * y * y
            u = m - gap
            # (m^p - u^p) / (m - u), and G(u) = gap (2/p slope - a (m + u))
            slope = -m_p * np.expm1(p * np.log1p(-gap / m)) / gap
            root = np.sqrt(2.0 / p * slope - a * (m + u))
            weight = 2.0 * math.sqrt(d)
            return weight / root if k == 0.0 else weight * u ** k / root

        # The full inner panels lie in [0, z*]; the last one is cut at 0.
        z_star = math.asinh(u_star / scale)
        full = int(_INNER_CUTS.searchsorted(z_star)) - 1
        nodes = 21 * full
        width = z_star - _INNER_CUTS[full]
        values = inner(np.concatenate((z_star - _INNER_OFFSETS[:nodes],
                                       width * _BOTTOM_NODES)))
        return 2.0 * float(values[:nodes] @ _INNER_WEIGHTS[:nodes]
                           + width * (values[nodes:] @ _BOTTOM_WEIGHTS)
                           + outer(_OUTER_NODES) @ _OUTER_WEIGHTS)

    # psi(l) = ln(e^l - 1) is l on long segments and ln l on short ones.
    # psi(length) falls near-linearly in the unknown x = ln(m - m_0), with
    # slope -1/sqrt(a) = -2/(n-2) at both ends: x ~ x_long - sqrt(a) length
    # on long segments, and length ~ K m^{-(p-2)/2} on short ones, where
    # only the u^p term of G counts.
    def psi(value: float) -> float:
        return value + math.log(-math.expm1(-value))

    target = psi(length)

    def mismatch(log_offset: float) -> float:
        return psi(integral(log_offset, 0.0)) - target

    # First guess: the larger of the two asymptotes, with
    # x_long = ln(4 m_0/(p-2)) + 2 ln 4/(p-2) (matching the infinite
    # cylinder's bubble to the linear regime near u = 0) and
    # K = sqrt(2p) int_0^1 dt/sqrt(1 - t^p) = sqrt(2p) B(1/p, 1/2)/p.
    # Then steps of 1.25 model Newton steps, doubled until the root is
    # bracketed, and Brent's method from that bracket.
    slope = math.sqrt(a)
    lo = (math.log(4.0 * m_0 / (p - 2.0)) + 2.0 * math.log(4.0) / (p - 2.0)
          - slope * length)
    log_peak = 2.0 / (p - 2.0) * (
        0.5 * math.log(2.0 * p) + math.lgamma(1.0 / p) + math.lgamma(0.5)
        - math.lgamma(1.0 / p + 0.5) - math.log(p) - math.log(length))
    if log_peak > math.log(m_0):
        lo = max(lo, log_peak + math.log(-math.expm1(math.log(m_0) - log_peak)))
    f_lo = mismatch(lo)
    if f_lo == 0.0:
        log_offset = lo
    else:
        step = 1.25 * f_lo / slope
        hi = lo + step
        f_hi = mismatch(hi)
        while math.copysign(1.0, f_hi) == math.copysign(1.0, f_lo):
            lo, f_lo = hi, f_hi
            step *= 2.0
            hi = lo + step
            f_hi = mismatch(hi)
        log_offset = _brent(mismatch, lo, hi, f_lo, f_hi, xtol=1e-14)
    # With m^p finite, only the u^p integrand can overflow.
    try:
        with np.errstate(over="raise", invalid="raise"):
            weighted = integral(log_offset, p)
    except FloatingPointError as exc:
        raise beyond_float64(log_offset) from exc
    return (area_weight(n) * weighted) ** (2.0 / n)


LENGTH_CAP = 40.0  # longest cylinder segment the exterior value is taken on
_TOL_OUT = 1e-3  # relative tolerance of both stabilization rules


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

    The estimate is stabilized when (a) the value is within ``_TOL_OUT``
    (relative) of the exact limit, value <= Lambda(n) (1 + _TOL_OUT),
    which every length at the cap meets, or (b) the length has converged
    in r: the outer half [(r_in + r_max)/2, r_max] contributes at most
    _TOL_OUT L_total (finite int dr/f, as on hyperbolic space).
    Otherwise StabilizationError is raised.
    """
    n, r_max = profile.n, profile.r_max
    total = cylinder_length(profile, r_in, r_max)
    if total == 0.0:
        raise DomainError(
            f"conformal length of [{r_in}, {r_max}] is 0 in float64: "
            f"r/f underflows on the whole exterior")
    value = radial_cylinder_quotient(n, min(total, LENGTH_CAP))
    stabilized = (
        value <= lambda_constant(n) * (1.0 + _TOL_OUT)
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
    support = curvature < 0.0
    if not support.any():
        return ScalarLowerBound(value=0.0, divergent=False)
    # (R_g)_-^{n/2} f^{n-1}, evaluated only where R_g < 0.
    integrand = np.zeros_like(r)
    integrand[support] = ((-curvature[support]) ** (n / 2.0)
                          * np.asarray(profile.f(r[support]), dtype=float)
                          ** (n - 1))
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
