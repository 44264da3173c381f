"""Rotationally symmetric model manifolds g = dr^2 + f(r)^2 g_{S^{n-1}}.

A profile is the pair (n, f) with f the warping function.  Closed-form
families ship with analytic derivatives; custom profiles come from a
two-column CSV table and are interpolated by cubic splines.
"""

from __future__ import annotations

import csv
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .constants import area_weight
from .errors import DomainError, ProfileError

# Tolerances for the pole smoothness checks f(0)=0, f'(0)=1.
_POLE_TOL_CLOSED = 1e-8
_POLE_TOL_TABLE = 1e-4


@dataclass(frozen=True)
class MetricProfile:
    """Immutable warped-product metric profile.

    ``f``, ``f_prime``, ``f_second`` are vectorized callables on [0, r_max].
    ``c3`` is the cubic Taylor coefficient of f at the pole (f = r + c3 r^3
    + ...), used for the r -> 0 limit of the scalar curvature.
    """

    n: int
    r_max: float
    name: str
    f: Callable = field(repr=False)
    f_prime: Callable = field(repr=False)
    f_second: Callable = field(repr=False)
    c3: float = 0.0

    def __post_init__(self):
        if self.n < 3:
            raise ProfileError(f"dimension must be >= 3, got {self.n}")
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ProfileError(
                f"r_max must be finite and positive, got {self.r_max}")
        tol = _POLE_TOL_TABLE if self.name == "table" else _POLE_TOL_CLOSED
        h = 1e-5 * self.r_max if self.name == "table" else 1e-6
        f0 = float(self.f(0.0))
        fp0 = (float(self.f(h)) - f0) / h
        if not abs(f0) <= tol:  # NaN fails too
            raise ProfileError(f"f(0) = {f0:.3e}, expected 0")
        if not abs(fp0 - 1.0) <= max(tol, 10 * h):
            raise ProfileError(f"f'(0) = {fp0:.6f}, expected 1")
        r_check = np.linspace(self.r_max / 512, self.r_max, 512)
        # f may overflow to inf far out (sinh r past r ~ 710): still > 0.
        with np.errstate(over="ignore"):
            nonpositive = np.any(self.f(r_check) <= 0)
        if nonpositive:
            raise ProfileError("f must be positive on (0, r_max]")

    # -- convenience wrappers ------------------------------------------------

    def scalar_curvature(self, r):
        return scalar_curvature(self, r)

    def check_radius(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0) or np.any(r > self.r_max * (1 + 1e-12)):
            raise DomainError(
                f"radius outside [0, {self.r_max}] for profile '{self.name}'"
                f" (got [{r.min()}, {r.max()}])")


# -- closed-form families ----------------------------------------------------


def euclidean(n: int, r_max: float = 40.0) -> MetricProfile:
    """Flat R^n: f(r) = r."""
    return MetricProfile(
        n=n, r_max=r_max, name="euclidean",
        f=lambda r: np.asarray(r, dtype=float),
        f_prime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        f_second=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        c3=0.0,
    )


def hyperbolic(n: int, r_max: float = 20.0) -> MetricProfile:
    """Hyperbolic space H^n: f(r) = sinh r, R = -n(n-1)."""
    return MetricProfile(
        n=n, r_max=r_max, name="hyperbolic",
        f=np.sinh, f_prime=np.cosh, f_second=np.sinh,
        c3=1.0 / 6.0,
    )


def sphere(n: int, r_max: float = 0.9 * math.pi) -> MetricProfile:
    """Round sphere S^n (pole chart): f(r) = sin r, R = +n(n-1)."""
    if r_max >= math.pi:
        raise ProfileError("sphere profile needs r_max < pi")
    return MetricProfile(
        n=n, r_max=r_max, name="sphere",
        f=np.sin, f_prime=np.cos, f_second=lambda r: -np.sin(r),
        c3=-1.0 / 6.0,
    )


# Beyond this |r| the cigar's f' = sech^2 r (< 1e-260 there) returns 0.0;
# cosh r itself overflows past |r| ~ 710.
_SECH_CUTOFF = 300.0


def cigar(n: int, r_max: float = 40.0) -> MetricProfile:
    """Cigar-type profile f(r) = tanh r (cylindrical end)."""

    def fp(r):
        r = np.asarray(r, dtype=float)
        c = np.cosh(np.clip(r, -_SECH_CUTOFF, _SECH_CUTOFF))
        return np.where(np.abs(r) > _SECH_CUTOFF, 0.0, 1.0 / c**2)[()]

    def fpp(r):
        t = np.tanh(r)
        return -2.0 * t * (1.0 - t**2)

    return MetricProfile(
        n=n, r_max=r_max, name="cigar",
        f=np.tanh, f_prime=fp, f_second=fpp,
        c3=-1.0 / 3.0,
    )


def power_bump(n: int, a: float, b: float, r_max: float = 40.0) -> MetricProfile:
    """Asymptotically flat bump family f(r) = r (1 + a r^2 exp(-b r^2)).

    Needs b > 0 and a > -b e so that f stays positive.
    """
    if b <= 0:
        raise ProfileError(f"bump width parameter b must be positive, got {b}")
    if a <= -b * math.e:
        raise ProfileError(f"bump amplitude a = {a} <= -b*e = {-b * math.e:.4f}")

    def f(r):
        r = np.asarray(r, dtype=float)
        return r * (1.0 + a * r**2 * np.exp(-b * r**2))

    def fp(r):
        r = np.asarray(r, dtype=float)
        e = np.exp(-b * r**2)
        return 1.0 + a * e * (3.0 * r**2 - 2.0 * b * r**4)

    def fpp(r):
        r = np.asarray(r, dtype=float)
        e = np.exp(-b * r**2)
        return a * e * (6.0 * r - 14.0 * b * r**3 + 4.0 * b**2 * r**5)

    return MetricProfile(
        n=n, r_max=r_max, name="power_bump", f=f, f_prime=fp,
        f_second=fpp, c3=a,
    )


class NotAKnotSpline:
    """Cubic spline through the knots (x_i, y_i) with not-a-knot ends.

    The interpolant of scipy's default ``CubicSpline``, in the same
    arithmetic: the knot slopes solve its tridiagonal system by the
    elimination that LAPACK ``dgtsv`` makes when it interchanges no rows
    (it makes none on uniform knots), and the cubics are summed in scipy's
    order.  No row needs interchanging for stability: every row but the
    two end rows is diagonally dominant, and eliminating the first row
    leaves the second dominant too.  Outside [x_0, x_last] the end cubics
    extrapolate; a point on an interior knot takes the cubic to its right.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 4:
            raise DomainError("a spline needs >= 4 matching (x, y) knots")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("spline knots and values must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise DomainError("spline knots must strictly increase")
        slope = np.diff(y) / dx
        s = _not_a_knot_slopes(x, dx, slope)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self._x = x
        # Power coefficients of each interval's cubic in (t - x_i).
        self._coeffs = (y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx)

    def __call__(self, t, nu: int = 0):
        """The spline (nu = 0) or its nu-th derivative (1 or 2) at t."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self._x, t, side="right") - 1,
                    0, self._x.size - 2)
        d = t - self._x[k]
        c0, c1, c2, c3 = (c[k] for c in self._coeffs)
        if nu == 0:
            out = c0 + c1 * d + c2 * (d * d) + c3 * (d * d * d)
        elif nu == 1:
            out = c1 + c2 * d * 2.0 + c3 * (d * d) * 3.0
        elif nu == 2:
            out = c2 * 2.0 + c3 * d * 6.0
        else:
            raise DomainError(f"derivative order must be 0, 1 or 2, got {nu}")
        return out[()]


def _not_a_knot_slopes(x: np.ndarray, dx: np.ndarray,
                       slope: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline (>= 4 knots)."""
    n = x.size
    diag = np.empty(n)
    upper = np.empty(n - 1)
    lower = np.empty(n - 1)
    rhs = np.empty(n)
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # Not-a-knot: the third derivative is continuous at x_1 and x_{n-2}.
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0]
              + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2]
               + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    # On Python floats: numpy scalars are several times slower per step.
    diag, upper, lower, s = (a.tolist() for a in (diag, upper, lower, rhs))
    for i in range(n - 1):
        w = lower[i] / diag[i]
        diag[i + 1] -= w * upper[i]
        s[i + 1] -= w * s[i]
    s[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    return np.array(s)


def from_table(n: int, r: np.ndarray, f_values: np.ndarray,
               r_max: float) -> MetricProfile:
    """Profile from sampled (r, f) pairs; cubic-spline interpolated."""
    r = np.asarray(r, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    if r.ndim != 1 or r.shape != f_values.shape or r.size < 8:
        raise ProfileError("table needs >= 8 matching (r, f) samples")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(f_values))):
        raise ProfileError("table radii and values must be finite")
    if r[0] != 0.0 or np.any(np.diff(r) <= 0):
        raise ProfileError("table radii must strictly increase from 0")
    if np.max(np.diff(r)) > 0.1 * r[-1]:
        raise ProfileError("table too sparse for stable differentiation")
    spline = NotAKnotSpline(r, f_values)
    h = r[1] / 4.0
    c3 = float(spline(h, 2)) / (6.0 * h)
    return MetricProfile(
        n=n, r_max=min(r_max, r[-1]), name="table",
        f=spline, f_prime=lambda t: spline(t, 1),
        f_second=lambda t: spline(t, 2), c3=c3,
    )


def read_pairs(path, header: str, error) -> np.ndarray:
    """Rows of a two-column CSV headed ``header`` (such as 'r,f') as an
    (m, 2) array of finite floats, m >= 2; a bad file raises ``error``
    naming the file and line."""
    rows = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        if [c.strip() for c in next(reader, [])[:2]] != header.split(","):
            raise error(f"{path} must have header '{header}'")
        for row in reader:
            try:
                pair = float(row[0]), float(row[1])
                ok = math.isfinite(pair[0]) and math.isfinite(pair[1])
            except (IndexError, ValueError):
                ok = False
            if not ok:
                raise error(
                    f"{path} line {reader.line_num}: need two finite numbers "
                    f"'{header}', got {','.join(row)!r}")
            rows.append(pair)
    if len(rows) < 2:
        raise error(f"{path} holds fewer than two '{header}' rows")
    return np.asarray(rows)


def load_table_csv(n: int, path, r_max: float) -> MetricProfile:
    """Read a two-column CSV with header ``r,f`` into a table profile."""
    r, f_values = read_pairs(path, "r,f", ProfileError).T
    return from_table(n, r, f_values, r_max=r_max)


# Each closed-form family with the params it takes from a config, beyond
# n and r_max.
_FAMILIES = {
    "euclidean": (euclidean, ()),
    "hyperbolic": (hyperbolic, ()),
    "sphere": (sphere, ()),
    "cigar": (cigar, ()),
    "power_bump": (power_bump, ("a", "b")),
}


def _check_params(name: str, params: dict, expected: tuple) -> None:
    ok = set(params) == set(expected) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max for v in params.values())
    if not ok:
        raise ProfileError(
            f"profile '{name}' takes params {list(expected)} as finite "
            f"numbers, got {params!r}")


def make_profile(name: str, n: int, r_max: float, params: dict,
                 table_path) -> MetricProfile:
    """Build a profile from config-style fields."""
    if name == "table":
        _check_params(name, params, ())
        if table_path is None:
            raise ProfileError("table profile needs table_path")
        return load_table_csv(n, table_path, r_max=r_max)
    if name not in _FAMILIES:
        raise ProfileError(f"unknown profile '{name}' (have {sorted(_FAMILIES)})")
    family, expected = _FAMILIES[name]
    _check_params(name, params, expected)
    return family(n=n, r_max=r_max, **params)


# -- geometric quantities ----------------------------------------------------

# Below this radius the direct curvature formula loses digits to
# cancellation; switch to the pole series R(0) = -6 c3 n (n-1).
_POLE_SERIES_RADIUS = 1e-4


def scalar_curvature(profile: MetricProfile, r):
    """Scalar curvature R(r) = -2(n-1) f''/f + (n-1)(n-2)(1 - f'^2)/f^2."""
    profile.check_radius(r)
    r = np.asarray(r, dtype=float)
    scalar_input = r.ndim == 0
    r = np.atleast_1d(r)
    n = profile.n
    # The formula runs on every radius, and the pole series overwrites
    # r < _POLE_SERIES_RADIUS, where the formula divides by f(0) = 0.
    # Where f overflows (sinh r past r ~ 710) it gives inf or nan, which
    # the finiteness check below reports.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fv = profile.f(r)
        fp = profile.f_prime(r)
        fpp = profile.f_second(r)
        out = (-2.0 * (n - 1) * fpp / fv
               + (n - 1) * (n - 2) * (1.0 - fp**2) / fv**2)
    out[r < _POLE_SERIES_RADIUS] = -6.0 * profile.c3 * n * (n - 1)
    if not np.all(np.isfinite(out)):
        raise DomainError("scalar curvature not finite on requested radii")
    return float(out[0]) if scalar_input else out


class VolumeGrowth(NamedTuple):
    """Result of the polynomial volume-growth fit V(r) ~ C r^{n+rho}."""

    rho: float | None
    residual: float
    exponential: bool


# A log V ~ r fit beating log V ~ log r by this residual factor flags
# exponential growth; otherwise the polynomial fit and its residual are
# reported as they are.
_EXP_FIT_FACTOR = 0.5
# Sample radii of the fits, evenly spaced over the window.
_GROWTH_SAMPLES = 16


def volume_growth_exponent(profile: MetricProfile, r_window) -> VolumeGrowth:
    """Least-squares growth exponent of V(r) on [r_lo, r_hi], minus n."""
    r_lo, r_hi = float(r_window[0]), float(r_window[1])
    if not 0 < r_lo < r_hi:
        raise DomainError(f"bad window [{r_lo}, {r_hi}]")
    profile.check_radius(r_hi)
    radii = np.linspace(r_lo, r_hi, _GROWTH_SAMPLES)
    # One cumulative pass of f^{n-1} covers every sample radius.
    grid = np.linspace(0.0, r_hi, 8192)
    integrand = np.asarray(profile.f(grid), dtype=float) ** (profile.n - 1)
    cumulative = np.concatenate(
        [[0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2.0
                          * np.diff(grid))])
    volumes = area_weight(profile.n) * np.interp(radii, grid, cumulative)
    log_v = np.log(volumes)

    def _fit(x):
        coeffs, res, *_ = np.polyfit(x, log_v, 1, full=True)
        rms = math.sqrt(float(res[0]) / len(x)) if len(res) else 0.0
        return coeffs[0], rms

    slope_poly, res_poly = _fit(np.log(radii))
    _, res_exp = _fit(radii)
    if res_exp < _EXP_FIT_FACTOR * res_poly:
        return VolumeGrowth(rho=None, residual=res_exp, exponential=True)
    return VolumeGrowth(rho=float(slope_poly - profile.n),
                        residual=res_poly, exponential=False)
