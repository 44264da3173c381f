"""Discrete radial function spaces: grids, operators, quadrature, energies.

Uniform grids with composite-trapezoid quadrature; the gradient energy is
assembled from interval midpoints, which makes the solver's tridiagonal
operator the exact Euler-Lagrange derivative of the discrete energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .constants import area_weight, conformal_coupling
from .errors import DomainError
from .manifold import MetricProfile, read_pairs

MIN_INTERVALS = 32


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid of N intervals on the ball [0, j]."""

    j: float
    N: int

    def __post_init__(self):
        if self.N < MIN_INTERVALS:
            raise DomainError(f"N must be >= {MIN_INTERVALS}, got {self.N}")
        if not self.j > 0:
            raise DomainError(f"need j > 0, got {self.j}")

    @property
    def h(self) -> float:
        return self.j / self.N

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(self.N + 1)


@dataclass(frozen=True)
class RadialField:
    """Sampled radial function on a grid.

    ``boundary`` is 'dirichlet' (u = 0 at the outer node) or 'free'.
    """

    grid: RadialGrid
    values: np.ndarray = field(repr=False)
    boundary: str = "dirichlet"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.N + 1,):
            raise DomainError(
                f"field has {values.shape[0]} values for {self.grid.N + 1} nodes")
        if not np.all(np.isfinite(values)):
            raise DomainError("field values must be finite")
        if self.boundary not in ("dirichlet", "free"):
            raise DomainError(f"unknown boundary tag '{self.boundary}'")
        if self.boundary == "dirichlet" and values[-1] != 0.0:
            raise DomainError("dirichlet field must vanish on the boundary")

    def with_values(self, values) -> "RadialField":
        return replace(self, values=np.asarray(values, dtype=float))


# -- quadrature --------------------------------------------------------------


def node_weights(grid: RadialGrid, profile: MetricProfile) -> np.ndarray:
    """Trapezoid quadrature weights W_i = tau_i omega_{n-1} f(r_i)^{n-1}."""
    tau = np.full(grid.N + 1, grid.h)
    tau[0] = tau[-1] = grid.h / 2.0
    fvals = np.asarray(profile.f(grid.nodes), dtype=float)
    return tau * area_weight(profile.n) * fvals ** (profile.n - 1)


def midpoint_weights(grid: RadialGrid, profile: MetricProfile) -> np.ndarray:
    """Per-interval weights omega_{n-1} f(midpoint)^{n-1}."""
    mids = grid.nodes[:-1] + grid.h / 2.0
    fvals = np.asarray(profile.f(mids), dtype=float)
    return area_weight(profile.n) * fvals ** (profile.n - 1)


def integrate(values, grid: RadialGrid, profile: MetricProfile) -> float:
    """Trapezoid integral of nodal samples against dV_g."""
    return float(node_weights(grid, profile) @ np.asarray(values, dtype=float))


# -- operators and norms -----------------------------------------------------


def lp_norm(u: RadialField, s: float, profile: MetricProfile) -> float:
    """L^s(g) norm by trapezoid quadrature; s >= 1."""
    if s < 1:
        raise DomainError(f"exponent s must be >= 1, got {s}")
    profile.check_radius(u.grid.j)
    weights = node_weights(u.grid, profile)
    return float(weights @ np.abs(u.values) ** s) ** (1.0 / s)


def gradient_energy(u: RadialField, profile: MetricProfile) -> float:
    """int |u'|^2 dV_g from interval midpoints (the discrete Dirichlet form)."""
    profile.check_radius(u.grid.j)
    h = u.grid.h
    diffs = np.diff(u.values) / h
    return float(midpoint_weights(u.grid, profile) @ diffs**2 * h)


def yamabe_energy(u: RadialField, profile: MetricProfile) -> float:
    """E_g(u) = int (|grad u|^2 + c(n) R_g u^2) dV_g.

    Defined for compactly supported (dirichlet) fields only; a free field
    would pick up uncontrolled boundary terms.
    """
    if u.boundary != "dirichlet":
        raise DomainError("yamabe_energy needs a dirichlet-zero field")
    c = conformal_coupling(profile.n)
    curvature = np.asarray(profile.scalar_curvature(u.grid.nodes), dtype=float)
    mass = integrate(c * curvature * u.values**2, u.grid, profile)
    return gradient_energy(u, profile) + mass


# -- serialization -----------------------------------------------------------


def save_field_csv(u: RadialField, path) -> None:
    """Write ``r,u`` and one ``repr(r),repr(u)`` row per node, with CRLF
    line ends: the bytes of ``csv.writer``, whose quoting no float repr
    triggers."""
    rows = [f"{r!r},{v!r}\r\n"
            for r, v in zip(u.grid.nodes.tolist(), u.values.tolist())]
    Path(path).write_text("r,u\r\n" + "".join(rows), newline="")


def load_field_csv(path, boundary="free") -> RadialField:
    r, values = read_pairs(path, "r,u", DomainError).T
    if r[0] != 0.0:
        raise DomainError(f"{path}: field grid must start at r = 0, "
                          f"got r = {float(r[0])!r}")
    steps = np.diff(r)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-12):
        raise DomainError(f"{path}: field grid must be uniform")
    grid = RadialGrid(j=float(r[-1]), N=len(r) - 1)
    return RadialField(grid, values, boundary=boundary)
