"""Blow-up rescaling and the entire-solution energy diagnostics."""

import math

import numpy as np
import pytest

from yamabe_lab import manifold
from yamabe_lab.blowup import (contradiction_test, energy_identity_check,
                               rescale, standard_bubble)
from yamabe_lab.constants import area_weight, critical_exponent
from yamabe_lab.errors import DomainError
from yamabe_lab.functional import lambda_constant
from yamabe_lab.radial import RadialField, RadialGrid


# -- the standard bubble -----------------------------------------------------


def test_standard_bubble_guards():
    with pytest.raises(DomainError):
        standard_bubble(2, 1.0, 0.0)
    with pytest.raises(DomainError):
        standard_bubble(3, -1.0, 0.0)
    assert standard_bubble(3, 5.0, 0.0) == 1.0


def _bubble_pde_residual(n, Y, N):
    """Sup of |Delta v + Y v^{p-1}| on [0, 4] at resolution N."""
    x = np.linspace(0.0, 4.0, N + 1)
    v = standard_bubble(n, Y, x)
    h = x[1] - x[0]
    p = critical_exponent(n)
    lap = np.empty_like(v)
    lap[1:-1] = ((v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
                 + (n - 1) / x[1:-1] * (v[2:] - v[:-2]) / (2 * h))
    lap[0] = 2 * n * (v[1] - v[0]) / h**2
    residual = lap[:-1] + Y * v[:-1] ** (p - 1.0)
    return float(np.max(np.abs(residual)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bubble_solves_pde_second_order(n):
    # The closed form satisfies Delta v + Y v^{p-1} = 0: the discrete
    # residual must vanish at the stencil's second-order rate.
    Y = lambda_constant(n)
    r_coarse = _bubble_pde_residual(n, Y, 200)
    r_fine = _bubble_pde_residual(n, Y, 400)
    rate = math.log2(r_coarse / r_fine)
    assert 1.7 <= rate <= 2.3


def bubble_total_mass(n: int, Y: float) -> float:
    """int_{R^n} v^p dx for the standard bubble, by direct quadrature plus
    the exact power-law tail."""
    x = np.linspace(0.0, 400.0, 400001)
    v = standard_bubble(n, Y, x)
    p = critical_exponent(n)
    integrand = v**p * x ** (n - 1)
    core = float(np.trapezoid(integrand, x))
    # v^p x^{n-1} ~ C x^{(2-n)p + n - 1}; integrate the tail analytically.
    expo = (2 - n) * p + n - 1
    C = integrand[-1] / x[-1] ** expo
    tail = -C * x[-1] ** (expo + 1) / (expo + 1)
    return area_weight(n) * (core + tail)


def test_bubble_total_mass_closed_form():
    # [DERIVED] int v^p dx = (Lambda/Y)^{n/2}.
    lam3 = lambda_constant(3)
    assert bubble_total_mass(3, lam3) == pytest.approx(1.0, rel=1e-10)
    assert bubble_total_mass(4, lambda_constant(4)) == pytest.approx(
        1.0, rel=1e-9)
    assert bubble_total_mass(3, 2.0) == pytest.approx((lam3 / 2.0) ** 1.5,
                                                      rel=1e-10)


# -- rescaling ---------------------------------------------------------------


def test_rescale_roundtrip_on_synthetic_bubble():
    # A field built as m * v((r - c)/delta) must rescale back to v.
    n, Y = 3, lambda_constant(3)
    m = 10.0
    p = critical_exponent(n)
    delta = m ** (1.0 - p / 2.0)  # the rescaling's own convention
    center = 2.0
    grid = RadialGrid(j=4.0, N=8192)
    vals = m * standard_bubble(n, Y, (grid.nodes - center) / delta)
    field = RadialField(grid, vals, boundary="free")
    rs = rescale(field, manifold.euclidean(n, r_max=10.0))
    assert rs.m == pytest.approx(m)
    assert rs.delta == pytest.approx(delta)
    assert rs.center == pytest.approx(center, abs=grid.h)
    reference = standard_bubble(n, Y, rs.x)
    assert float(np.max(np.abs(rs.values - reference))) < 5e-3


def test_rescale_rejects_boundary_maximum():
    grid = RadialGrid(j=1.0, N=64)
    field = RadialField(grid, grid.nodes.copy(), boundary="free")
    with pytest.raises(DomainError):
        rescale(field, manifold.euclidean(3, r_max=2.0))


def test_rescale_pole_reflection():
    # A pole-centered peak keeps v symmetric through x = 0.
    grid = RadialGrid(j=2.0, N=1024)
    vals = np.exp(-grid.nodes**2)
    field = RadialField(grid, vals, boundary="free")
    rs = rescale(field, manifold.euclidean(3, r_max=4.0))
    assert rs.center == 0.0
    assert np.allclose(rs.values, rs.values[::-1], atol=1e-10)


# -- energy identities -------------------------------------------------------


def test_energy_identity_exact_bubble():
    # Criterion target: defect <= 1e-5 relative at R = 50, n = 3, Y = Lambda.
    n, Y = 3, lambda_constant(3)
    x = np.linspace(0.0, 50.0, 200001)
    v = standard_bubble(n, Y, x)
    rep = energy_identity_check(x, v, n, Y)
    assert rep.relative_defect <= 1e-5
    assert rep.flux < 0.0  # outward-decreasing profile drains energy


def test_energy_identity_detects_wrong_multiplier():
    n, Y = 3, lambda_constant(3)
    x = np.linspace(0.0, 50.0, 50001)
    v = standard_bubble(n, Y, x)
    rep = energy_identity_check(x, v, n, 2.0 * Y)
    assert rep.relative_defect > 0.1


def test_energy_identity_input_guard():
    with pytest.raises(DomainError):
        energy_identity_check(np.linspace(0, 1, 8), np.ones(8), 3, 1.0)


# -- the contradiction chain -------------------------------------------------


def test_contradiction_equality_at_extremal_bubble():
    # At Y = Lambda the chain Lambda <= Y (int v^p)^{2/n} is an equality
    # (the bubble is the extremal): both sides agree within 1%.
    n, Y = 3, lambda_constant(3)
    x = np.linspace(0.0, 200.0, 400001)
    v = standard_bubble(n, Y, x)
    rep = contradiction_test(x, v, n, Y)
    assert rep.consistent
    assert rep.rhs == pytest.approx(rep.lhs, rel=0.01)
    assert rep.tail_mass > 0.0
    assert rep.tail_uncertainty < 0.01 * rep.total_mass


def test_contradiction_flags_mass_deficit():
    # Chopping the profile to a fraction of the bubble leaves too little
    # mass: the chain must report inconsistency.
    n, Y = 3, lambda_constant(3)
    x = np.linspace(0.0, 200.0, 400001)
    v = 0.25 * standard_bubble(n, Y, x)
    rep = contradiction_test(x, v, n, Y)
    assert not rep.consistent


def test_contradiction_refuses_slow_tails():
    n = 3
    x = np.linspace(1.0, 100.0, 10001)
    v = x ** -0.5  # decays, but far slower than the bubble tail
    with pytest.raises(DomainError, match="too slow"):
        contradiction_test(x, v, n, 1.0)


def test_contradiction_refuses_growing_tails():
    n = 3
    x = np.linspace(0.0, 10.0, 4097)
    v = 1.0 + x
    with pytest.raises(DomainError, match="not decaying"):
        contradiction_test(x, v, n, 1.0)
