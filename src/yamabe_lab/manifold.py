"""Rotationally symmetric model manifolds g = dr^2 + f(r)^2 g_{S^{n-1}}.

A profile is the pair (n, f) with f the warping function.  Closed-form
families ship with analytic derivatives; custom profiles come from a
two-column CSV table and are interpolated by cubic splines.
"""

from __future__ import annotations

import csv
import math
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
    params: tuple = ()
    f: Callable = field(repr=False, default=None)
    f_prime: Callable = field(repr=False, default=None)
    f_second: Callable = field(repr=False, default=None)
    c3: float = 0.0

    def __post_init__(self):
        if self.n < 3:
            raise ProfileError(f"dimension must be >= 3, got {self.n}")
        if not self.r_max > 0:
            raise ProfileError(f"r_max must be positive, got {self.r_max}")
        tol = _POLE_TOL_TABLE if self.name == "table" else _POLE_TOL_CLOSED
        h = 1e-5 * self.r_max if self.name == "table" else 1e-6
        f0 = float(self.f(0.0))
        fp0 = (float(self.f(h)) - f0) / h
        if abs(f0) > tol:
            raise ProfileError(f"f(0) = {f0:.3e}, expected 0")
        if abs(fp0 - 1.0) > max(tol, 10 * h):
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
            )


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
        n=n, r_max=r_max, name="power_bump", params=(("a", a), ("b", b)),
        f=f, f_prime=fp, f_second=fpp, c3=a,
    )


def from_table(n: int, r: np.ndarray, f_values: np.ndarray,
               r_max: float | None = None) -> MetricProfile:
    """Profile from sampled (r, f) pairs; cubic-spline interpolated."""
    from scipy.interpolate import CubicSpline

    r = np.asarray(r, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    if r.ndim != 1 or r.shape != f_values.shape or r.size < 8:
        raise ProfileError("table needs >= 8 matching (r, f) samples")
    if r[0] != 0.0 or np.any(np.diff(r) <= 0):
        raise ProfileError("table radii must strictly increase from 0")
    if np.max(np.diff(r)) > 0.1 * r[-1]:
        raise ProfileError("table too sparse for stable differentiation")
    spline = CubicSpline(r, f_values)
    rm = r[-1] if r_max is None else min(r_max, r[-1])
    h = r[1] / 4.0
    c3 = float(spline(h, 2)) / (6.0 * h)
    return MetricProfile(
        n=n, r_max=rm, name="table",
        f=spline, f_prime=spline.derivative(1), f_second=spline.derivative(2),
        c3=c3,
    )


def load_table_csv(n: int, path, r_max=None) -> MetricProfile:
    """Read a two-column CSV with header ``r,f`` into a table profile."""
    rows = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if [c.strip() for c in header[:2]] != ["r", "f"]:
            raise ProfileError(f"table {path} must have header 'r,f'")
        for row in reader:
            rows.append((float(row[0]), float(row[1])))
    data = np.asarray(rows)
    return from_table(n, data[:, 0], data[:, 1], r_max=r_max)


_FAMILIES = {
    "euclidean": euclidean,
    "hyperbolic": hyperbolic,
    "sphere": sphere,
    "cigar": cigar,
    "power_bump": power_bump,
}


def make_profile(name: str, n: int, r_max: float, params: dict | None = None,
                 table_path=None) -> MetricProfile:
    """Build a profile from config-style fields."""
    if name == "table":
        if table_path is None:
            raise ProfileError("table profile needs table_path")
        return load_table_csv(n, table_path, r_max=r_max)
    if name not in _FAMILIES:
        raise ProfileError(f"unknown profile '{name}' (have {sorted(_FAMILIES)})")
    return _FAMILIES[name](n=n, r_max=r_max, **(params or {}))


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
    out = np.empty_like(r)
    pole = r < _POLE_SERIES_RADIUS
    if np.any(~pole):
        rr = r[~pole]
        # Where f overflows (sinh r past r ~ 710) the formula gives inf or
        # nan, which the finiteness check below reports.
        with np.errstate(over="ignore", invalid="ignore"):
            fv = profile.f(rr)
            fp = profile.f_prime(rr)
            fpp = profile.f_second(rr)
            out[~pole] = (-2.0 * (n - 1) * fpp / fv
                          + (n - 1) * (n - 2) * (1.0 - fp**2) / fv**2)
    if np.any(pole):
        out[pole] = -6.0 * profile.c3 * n * (n - 1)
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


def volume_growth_exponent(profile: MetricProfile, r_window,
                           samples: int = 16) -> VolumeGrowth:
    """Least-squares growth exponent of V(r) on [r_lo, r_hi], minus n."""
    r_lo, r_hi = float(r_window[0]), float(r_window[1])
    if not 0 < r_lo < r_hi:
        raise DomainError(f"bad window [{r_lo}, {r_hi}]")
    profile.check_radius(r_hi)
    if samples < 8:
        raise DomainError("window must contain >= 8 samples")
    radii = np.linspace(r_lo, r_hi, samples)
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
