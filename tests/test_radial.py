"""Grids, quadrature, operators, energies, and field serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe_lab import manifold
from yamabe_lab.errors import DomainError
from yamabe_lab.radial import (RadialField, RadialGrid, gradient_energy,
                               integrate, load_field_csv, lp_norm,
                               node_weights, save_field_csv, yamabe_energy)
from yamabe_lab.subcritical import DiscreteOperator


def field_from_function(grid: RadialGrid, fn, boundary="free") -> RadialField:
    return RadialField(grid, np.asarray(fn(grid.nodes), dtype=float), boundary)


# -- grids and fields --------------------------------------------------------


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(j=1.0, N=8)           # below the interval floor
    with pytest.raises(DomainError):
        RadialGrid(j=1.0, N=64, r_lo=1.5)


def test_grid_nodes():
    grid = RadialGrid(j=2.0, N=64, r_lo=1.0)
    assert grid.h == pytest.approx(1.0 / 64)
    assert grid.nodes[0] == 1.0 and grid.nodes[-1] == 2.0
    assert not grid.is_ball


def test_field_validation():
    grid = RadialGrid(j=1.0, N=64)
    with pytest.raises(DomainError):
        RadialField(grid, np.zeros(10))
    with pytest.raises(DomainError):
        RadialField(grid, np.full(65, np.nan))
    with pytest.raises(DomainError):
        RadialField(grid, np.ones(65), boundary="dirichlet")  # u(j) != 0
    with pytest.raises(DomainError):
        RadialField(grid, np.ones(65), boundary="periodic")


def test_annulus_dirichlet_needs_both_ends():
    grid = RadialGrid(j=2.0, N=64, r_lo=1.0)
    vals = np.ones(65)
    vals[-1] = 0.0
    with pytest.raises(DomainError):
        RadialField(grid, vals, boundary="dirichlet")
    vals[0] = 0.0
    RadialField(grid, vals, boundary="dirichlet")  # now fine


# -- quadrature --------------------------------------------------------------


def test_integrate_constant_is_ball_volume():
    # [DERIVED] int 1 dV = |B_r|; on H^3, |B_2| = 4 pi int_0^2 sinh^2
    # = pi (sinh 4 - 4).
    prof = manifold.hyperbolic(3, r_max=10.0)
    grid = RadialGrid(j=2.0, N=2048)
    vol = integrate(np.ones(grid.N + 1), grid, prof)
    assert vol == pytest.approx(math.pi * (math.sinh(4.0) - 4.0), rel=1e-6)


def test_integrate_polynomial_flat_oracle():
    # int_0^1 r^2 dV = omega_2 int r^4 dr = 4 pi / 5 on flat R^3.
    prof = manifold.euclidean(3, r_max=2.0)
    grid = RadialGrid(j=1.0, N=4096)
    val = integrate(grid.nodes**2, grid, prof)
    assert val == pytest.approx(4 * math.pi / 5, rel=1e-7)


def test_lp_norm_guard_and_value():
    prof = manifold.euclidean(3, r_max=2.0)
    grid = RadialGrid(j=1.0, N=1024)
    u = field_from_function(grid, lambda r: np.ones_like(r))
    with pytest.raises(DomainError):
        lp_norm(u, 0.5, prof)
    # ||1||_2 on the unit flat 3-ball = sqrt(4 pi / 3)
    assert lp_norm(u, 2.0, prof) == pytest.approx(math.sqrt(4 * math.pi / 3),
                                                  rel=1e-6)


# -- energies ----------------------------------------------------------------


def test_gradient_energy_linear_exact():
    # u = r on flat B_1: int |u'|^2 dV = |B_1| = 4 pi / 3, exact for the
    # midpoint rule since the integrand is the volume weight itself.
    prof = manifold.euclidean(3, r_max=2.0)
    grid = RadialGrid(j=1.0, N=512)
    u = field_from_function(grid, lambda r: r)
    assert gradient_energy(u, prof) == pytest.approx(4 * math.pi / 3,
                                                     rel=1e-6)


def test_yamabe_energy_requires_dirichlet():
    prof = manifold.euclidean(3, r_max=2.0)
    grid = RadialGrid(j=1.0, N=64)
    u = field_from_function(grid, lambda r: 1.0 - r**2, boundary="free")
    with pytest.raises(DomainError):
        yamabe_energy(u, prof)


def test_yamabe_energy_flat_equals_gradient_energy():
    prof = manifold.euclidean(3, r_max=2.0)
    grid = RadialGrid(j=1.0, N=256)
    vals = 1.0 - grid.nodes**2
    vals[-1] = 0.0
    u = RadialField(grid, vals, boundary="dirichlet")
    assert yamabe_energy(u, prof) == pytest.approx(gradient_energy(u, prof),
                                                   rel=1e-12)


def test_yamabe_energy_mass_term_sign():
    # Hyperbolic R < 0 lowers the energy below the Dirichlet part.
    prof = manifold.hyperbolic(3, r_max=2.0)
    grid = RadialGrid(j=1.0, N=256)
    vals = 1.0 - grid.nodes**2
    vals[-1] = 0.0
    u = RadialField(grid, vals, boundary="dirichlet")
    assert yamabe_energy(u, prof) < gradient_energy(u, prof)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_operator_energy_matches_quadratic_form(seed):
    # Invariant: the solver's tridiagonal A reproduces the assembled
    # energy u^T A u = int |u'|^2 + c(n) R u^2 dV for dirichlet fields.
    rng = np.random.default_rng(seed)
    prof = manifold.power_bump(3, a=float(rng.uniform(-0.3, 2.0)),
                               b=float(rng.uniform(0.3, 1.5)), r_max=10.0)
    grid = RadialGrid(j=2.0, N=96)
    vals = rng.standard_normal(grid.N + 1)
    vals[-1] = 0.0
    u = RadialField(grid, vals, boundary="dirichlet")
    op = DiscreteOperator(prof, grid)
    quad_form = op.energy(vals[op.lo:op.hi])
    assert quad_form == pytest.approx(yamabe_energy(u, prof), rel=1e-10)


# -- pointwise Laplacian -----------------------------------------------------


def laplace_beltrami(u: RadialField, profile) -> RadialField:
    """Pointwise radial Laplacian u'' + (n-1)(f'/f) u'.

    Second-order centered stencils inside; at the pole the regular limit
    n u''(0) with the symmetry ghost; one-sided (first-order u'') at other
    ends.
    """
    grid, n = u.grid, profile.n
    r, v, h = grid.nodes, u.values, grid.h
    out = np.empty_like(v)
    fr = np.asarray(profile.f(r[1:-1]), dtype=float)
    fpr = np.asarray(profile.f_prime(r[1:-1]), dtype=float)
    upp = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    up = (v[2:] - v[:-2]) / (2.0 * h)
    out[1:-1] = upp + (n - 1) * fpr / fr * up
    if grid.is_ball:
        out[0] = 2.0 * n * (v[1] - v[0]) / h**2
    else:
        coef = (n - 1) * float(profile.f_prime(r[0])) / float(profile.f(r[0]))
        out[0] = ((v[2] - 2 * v[1] + v[0]) / h**2
                  + coef * (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h))
    coef = (n - 1) * float(profile.f_prime(r[-1])) / float(profile.f(r[-1]))
    out[-1] = ((v[-1] - 2 * v[-2] + v[-3]) / h**2
               + coef * (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h))
    return RadialField(grid, out, boundary="free")


def test_laplacian_of_r_squared_flat():
    # [TRIVIAL] Delta r^2 = 2n on flat R^n, including the pole limit.
    prof = manifold.euclidean(3, r_max=4.0)
    grid = RadialGrid(j=2.0, N=512)
    u = field_from_function(grid, lambda r: r**2)
    out = laplace_beltrami(u, prof)
    assert np.allclose(out.values, 6.0, rtol=1e-6, atol=1e-6)


def test_laplacian_eigenfunction_hyperbolic():
    # u = cosh r solves Delta u = n u when f = sinh (radial check away
    # from the pole on an annulus grid).
    prof = manifold.hyperbolic(3, r_max=6.0)
    grid = RadialGrid(j=4.0, N=2048, r_lo=1.0)
    u = field_from_function(grid, np.cosh)
    out = laplace_beltrami(u, prof)
    interior = out.values[2:-2] / u.values[2:-2]
    assert np.allclose(interior, 3.0, rtol=1e-5)


# -- serialization -----------------------------------------------------------


def test_field_csv_roundtrip_exact(tmp_path):
    grid = RadialGrid(j=1.0, N=64, r_lo=0.25)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(65)
    u = RadialField(grid, vals, boundary="free")
    path = tmp_path / "field.csv"
    save_field_csv(u, path)
    back = load_field_csv(path)
    # repr() serialization makes the roundtrip bit-exact.
    assert np.array_equal(back.values, vals)
    assert back.grid == grid


def test_field_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,u\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    with pytest.raises(DomainError):
        load_field_csv(path)


def test_field_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.0,1.0\n")
    with pytest.raises(DomainError):
        load_field_csv(path)
