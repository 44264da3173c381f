"""Quotients: bubbles, exterior estimates, scalar lower bounds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from yamabe_lab import manifold
from yamabe_lab.constants import conformal_coupling, critical_exponent
from yamabe_lab.errors import (DomainError, GridResolutionError,
                               StabilizationError)
from yamabe_lab.functional import (BubbleSpec, QuotientReport,
                                   bubble_quotient, bubble_values,
                                   cylinder_length, exterior_quotient,
                                   lambda_constant, radial_cylinder_quotient,
                                   scalar_lower_bound)
from yamabe_lab.manifold import MetricProfile
from yamabe_lab.radial import RadialField, RadialGrid, lp_norm, yamabe_energy
from yamabe_lab.subcritical import continue_to_critical


# -- bubbles -----------------------------------------------------------------


def test_bubble_spec_validation():
    with pytest.raises(DomainError):
        BubbleSpec(alpha=0.5, eps=0.25)  # alpha > eps
    with pytest.raises(DomainError):
        BubbleSpec(alpha=0.0, eps=0.5)


def test_bubble_values_normalization():
    # u_alpha(0) = alpha^{-(n-2)/2}; u_alpha(alpha) = (2 alpha)^{-(n-2)/2}
    # for n = 3.
    assert bubble_values(3, 0.1, 0.0) == pytest.approx(0.1 ** -0.5)
    assert bubble_values(3, 0.1, 0.1) == pytest.approx((2 * 0.1) ** -0.5)


def test_flat_bubble_quotient_above_lambda():
    # Cut-off bubbles are admissible test functions: their quotient sits
    # above Lambda and approaches it as alpha -> 0.
    prof = manifold.euclidean(3, r_max=10.0)
    lam = lambda_constant(3)
    q_coarse = bubble_quotient(prof, BubbleSpec(alpha=0.2, eps=0.5)).quotient
    q_fine = bubble_quotient(prof, BubbleSpec(alpha=0.002, eps=0.5)).quotient
    assert q_coarse > q_fine > lam
    # the n = 3 excess decays like alpha (~4.3 alpha measured), so the
    # quotient is within 1% of Lambda only for quite small alpha
    assert q_fine == pytest.approx(lam, rel=0.01)


def _quad_bubble_excess(n, alpha, eps):
    """Q - Lambda of the cut-off bubble on flat R^n by adaptive quadrature.

    The bubble, the cosine cutoff and its derivative are written out here
    from their formulas, so the oracle shares no code with the grid path.
    """
    p = 2.0 * n / (n - 2)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

    def u(r):
        return (alpha / (alpha**2 + r**2)) ** ((n - 2) / 2.0)

    def du(r):
        return -(n - 2) * r / (alpha**2 + r**2) * u(r)

    def eta(r):
        t = min(max((r - eps) / eps, 0.0), 1.0)
        return 0.5 * (1.0 + math.cos(math.pi * t))

    def deta(r):
        if not eps < r < 2.0 * eps:
            return 0.0
        return -0.5 * math.pi / eps * math.sin(math.pi * (r - eps) / eps)

    cuts = (0.0, alpha, 4 * alpha, 16 * alpha, eps, 2 * eps)
    cuts = sorted({c for c in cuts if c <= 2 * eps})

    def integral(fn):
        return sum(quad(fn, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                   for a, b in zip(cuts, cuts[1:]))

    energy = omega * integral(
        lambda r: (deta(r) * u(r) + eta(r) * du(r)) ** 2 * r ** (n - 1))
    power = omega * integral(lambda r: (eta(r) * u(r)) ** p * r ** (n - 1))
    return energy / power ** (2.0 / p) - lambda_constant(n)


def test_flat_bubble_excess_matches_quad():
    # The n = 5 excess Q - Lambda decays like (alpha/eps)^{n-2} = alpha^3
    # (the cut-off tail; acceptance criterion 3).  The quadrature oracle
    # fixes that rate independently of the grid, the grid agrees at
    # alpha/eps = 0.2 and 0.1, and at 0.05 it converges to the oracle at
    # second order (the default N = 4096 reads ~10% high there).
    n, eps = 5, 0.5
    prof = manifold.euclidean(n, r_max=10.0)
    lam = lambda_constant(n)
    alphas = (0.1, 0.05, 0.025)
    oracle = [_quad_bubble_excess(n, a, eps) for a in alphas]
    slope = float(np.polyfit(np.log(alphas), np.log(oracle), 1)[0])
    assert 3.0 - 0.35 <= slope <= 3.0 + 0.35
    for a, want in zip(alphas[:2], oracle[:2]):
        got = bubble_quotient(prof, BubbleSpec(alpha=a, eps=eps)).quotient
        assert got - lam == pytest.approx(want, rel=0.01)
    errors = [abs(bubble_quotient(prof, BubbleSpec(alpha=alphas[2], eps=eps),
                                  N=N).quotient - lam - oracle[2]) / oracle[2]
              for N in (None, 8192, 16384)]
    assert errors[2] < 0.01
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= math.log2(coarse / fine) <= 2.2


def test_bubble_quotient_resolution_guard():
    prof = manifold.euclidean(3, r_max=10.0)
    with pytest.raises(GridResolutionError) as err:
        bubble_quotient(prof, BubbleSpec(alpha=0.01, eps=0.5), N=256)
    assert err.value.required_n is not None
    assert err.value.required_n > 256


def test_bubble_quotient_support_guard():
    prof = manifold.euclidean(3, r_max=0.5)
    with pytest.raises(DomainError):
        bubble_quotient(prof, BubbleSpec(alpha=0.1, eps=0.4))


# -- cylinder length and exterior quotients ----------------------------------


def test_cylinder_length_flat_log():
    prof = manifold.euclidean(3, r_max=100.0)
    assert cylinder_length(prof, 2.0, 10.0) == pytest.approx(math.log(5.0),
                                                             rel=1e-10)
    with pytest.raises(DomainError):
        cylinder_length(prof, 5.0, 2.0)


def test_cylinder_length_hyperbolic_finite_total():
    # int_2^inf dr / sinh converges; the tail beyond r = 20 is tiny.
    prof = manifold.hyperbolic(3, r_max=30.0)
    s1 = cylinder_length(prof, 2.0, 20.0)
    s2 = cylinder_length(prof, 2.0, 29.0)
    oracle, _ = quad(lambda t: 1.0 / math.sinh(t), 2.0, 29.0)
    assert s2 == pytest.approx(oracle, rel=1e-8)
    assert s2 - s1 < 1e-6


def test_cylinder_length_hyperbolic_many_decades():
    # [DERIVED] int dr/sinh = ln tanh(r/2).  Over [2, 1e8] the mass sits
    # in the first decade; a quadrature in r misses it and returns ~0.
    length = cylinder_length(manifold.hyperbolic(3, r_max=1e8), 2.0, 1e8)
    exact = math.log(math.tanh(0.5e8) / math.tanh(1.0))
    assert length == pytest.approx(exact, rel=1e-10)


# Q_rad(3, L) - Lambda(3) from the first integral, tabulated in ROADMAP.md
# ("Exterior truth").
_EXTERIOR_EXCESS_3 = {15.0: 1.03e-2, 20.0: 8.44e-4, 25.0: 6.93e-5,
                      30.0: 5.7e-6, 40.0: 3.8e-8}


def test_radial_cylinder_quotient_excess_table():
    lam = lambda_constant(3)
    for length, excess in _EXTERIOR_EXCESS_3.items():
        got = radial_cylinder_quotient(3, length) - lam
        assert got == pytest.approx(excess, rel=0.01)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_radial_cylinder_quotient_decreases_to_lambda(n):
    # Dirichlet fields on a shorter segment embed in a longer one, and the
    # infinite cylinder is conformal to R^n minus a point.
    lam = lambda_constant(n)
    values = [radial_cylinder_quotient(n, length)
              for length in (0.05, 0.2723, 5.0, 15.0, 25.0, 40.0)]
    for shorter, longer in zip(values, values[1:]):
        assert longer <= shorter * (1.0 + 1e-13)
    assert min(values) >= lam * (1.0 - 1e-12)


def _cylinder_profile(n: int, s_max: float) -> MetricProfile:
    """Cylinder gauge: f == 1 (round unit cross-section) for s >= 1; the
    linear stub near 0 only satisfies the profile axioms."""
    return MetricProfile(
        n=n, r_max=s_max, name="cylinder-gauge",
        f=lambda s: np.minimum(np.asarray(s, dtype=float), 1.0),
        f_prime=lambda s: (np.asarray(s, dtype=float) < 1.0).astype(float),
        f_second=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        c3=0.0)


@pytest.mark.parametrize("length", [5.0, 15.0])
def test_radial_cylinder_quotient_matches_finite_differences(length):
    # The polished critical solve on the meshed segment [2, 2 + L] of the
    # cylinder gauge converges to the first-integral value at second
    # order in the mesh width (-1.1e-5 at 64 nodes per unit on L = 5).
    exact = radial_cylinder_quotient(3, length)
    errors = []
    for per_unit in (64, 256):
        grid = RadialGrid(j=2.0 + length, N=int(per_unit * length), r_lo=2.0)
        result = continue_to_critical(_cylinder_profile(3, 2.0 + length), grid)
        errors.append(abs(result.y_critical - exact) / exact)
    assert errors[1] < 1e-6
    assert 1.8 <= math.log(errors[0] / errors[1], 4.0) <= 2.2


def test_flat_exterior_quotient_near_lambda():
    # The flat exterior has Yamabe constant Lambda (scaling moves any
    # test function into the exterior); the radial estimate at the
    # conformal length L = ln(5e7) must land within 0.1% above it.
    prof = manifold.euclidean(3, r_max=1e8)
    est = exterior_quotient(prof, 2.0)
    lam = lambda_constant(3)
    assert est.stabilized
    assert est.r_out == prof.r_max
    assert est.history == ((prof.r_max, est.value),)
    assert lam * (1 - 1e-6) <= est.value <= lam * 1.001


def test_exterior_quotient_depends_only_on_conformal_length():
    # On the cigar both inner radii give L = int dr/tanh >= the cap, so
    # both values are Q_rad(3, LENGTH_CAP) and agree exactly.
    prof = manifold.cigar(3, r_max=1e8)
    a = exterior_quotient(prof, 2.0)
    b = exterior_quotient(prof, 4.0)
    assert a.stabilized and b.stabilized
    assert a.value == b.value


def test_hyperbolic_exterior_stabilizes_on_finite_length():
    # int_2^30 dr / sinh = 0.27 converges: the outer half of [2, 30] adds
    # nothing, so the estimate is stabilized although far above Lambda.
    prof = manifold.hyperbolic(3, r_max=30.0)
    est = exterior_quotient(prof, 2.0)
    assert est.stabilized
    assert est.r_out == prof.r_max
    assert est.value > lambda_constant(3) * 1.01


def test_exterior_stabilization_error_on_small_r_max():
    # Flat [2, 6]: L = ln 3 is short, the value (34.5) is far above Lambda
    # and the outer half [4, 6] still carries a third of the length.
    prof = manifold.euclidean(3, r_max=6.0)
    with pytest.raises(StabilizationError):
        exterior_quotient(prof, 2.0)


# -- scalar lower bound ------------------------------------------------------


def test_scalar_lower_bound_nonnegative_curvature_zero():
    assert scalar_lower_bound(manifold.euclidean(3, 50.0)).value == 0.0
    low = scalar_lower_bound(manifold.cigar(3, 50.0), R_out=50.0)
    assert low.value == 0.0 and not low.divergent


def test_scalar_lower_bound_hyperbolic_divergent():
    low = scalar_lower_bound(manifold.hyperbolic(3, 30.0))
    assert low.divergent and low.value is None


def test_scalar_lower_bound_divergent_where_profile_overflows():
    # sinh r overflows far out, so the curvature formula is not finite
    # there; the bound is reported divergent rather than raising.
    low = scalar_lower_bound(manifold.hyperbolic(3, 1e8))
    assert low.divergent and low.value is None


def test_scalar_lower_bound_resolves_pole_at_large_r_max():
    # bump3's negative curvature sits near r = 2.4; a uniform sampling of
    # [0, 1e8] would step over it (spacing ~6e3) and report 0.
    near = scalar_lower_bound(manifold.power_bump(3, -0.5, 0.25, 100.0))
    far = scalar_lower_bound(manifold.power_bump(3, -0.5, 0.25, 1e8))
    assert near.value < -5.0
    assert far.value == pytest.approx(near.value, rel=1e-2)
    assert not far.divergent
    for prof in (manifold.euclidean(3, 1e8), manifold.cigar(3, 1e8)):
        low = scalar_lower_bound(prof)
        assert low.value == 0.0 and not low.divergent


def test_scalar_lower_bound_bump_oracle():
    # Independent quadrature of -c(3) (int (R_-)^{3/2} dV)^{2/3} for the
    # localized-negative-curvature bump.
    prof = manifold.power_bump(3, a=1.0, b=1.0, r_max=100.0)

    def integrand(t):
        return max(-prof.scalar_curvature(t), 0.0) ** 1.5 \
            * float(prof.f(t)) ** 2

    total, _ = quad(integrand, 0.0, 20.0, limit=400)
    oracle = -conformal_coupling(3) * (4 * math.pi * total) ** (2.0 / 3.0)
    low = scalar_lower_bound(prof, R_out=20.0)
    assert not low.divergent
    assert low.value == pytest.approx(oracle, rel=1e-3)
    assert low.value < 0.0


# -- explicit quotient reports -----------------------------------------------


def quotient_of(field: RadialField, profile, s=None, domain=""):
    """QuotientReport for an explicit dirichlet field."""
    if s is None:
        s = critical_exponent(profile.n)
    energy = yamabe_energy(field, profile)
    norm = lp_norm(field, s, profile)
    return QuotientReport(domain=domain or f"ball:{field.grid.j:g}",
                          s=float(s), energy=energy, norm=norm,
                          quotient=energy / norm**2)


def test_quotient_of_matches_manual():
    prof = manifold.euclidean(3, r_max=4.0)
    grid = RadialGrid(j=1.0, N=256)
    vals = np.cos(math.pi / 2.0 * grid.nodes)
    vals[-1] = 0.0
    u = RadialField(grid, vals, boundary="dirichlet")
    rep = quotient_of(u, prof)
    assert rep.quotient == pytest.approx(
        yamabe_energy(u, prof) / lp_norm(u, 6.0, prof) ** 2, rel=1e-12)
    assert rep.s == 6.0
