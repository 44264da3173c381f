"""Metric profiles: validation, curvature, volume growth exponents."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe_lab import manifold
from yamabe_lab.errors import DomainError, ProfileError
from yamabe_lab.functional import _lower_bound_samples
from yamabe_lab.radial import RadialGrid


# -- validation --------------------------------------------------------------


def test_rejects_low_dimension():
    with pytest.raises(ProfileError):
        manifold.euclidean(2)


def test_rejects_nonpositive_r_max():
    with pytest.raises(ProfileError):
        manifold.euclidean(3, r_max=0.0)


@pytest.mark.parametrize("r_max", [math.inf, math.nan])
def test_rejects_non_finite_r_max(r_max):
    with pytest.raises(ProfileError, match="finite"):
        manifold.euclidean(3, r_max=r_max)


def test_rejects_wrong_pole_slope():
    # f(r) = 2r has f'(0) = 2, not an admissible profile.
    with pytest.raises(ProfileError):
        manifold.MetricProfile(
            n=3, r_max=1.0, name="bad",
            f=lambda r: 2.0 * np.asarray(r, dtype=float),
            f_prime=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),
            f_second=lambda r: np.zeros_like(np.asarray(r, dtype=float)))


def test_rejects_vanishing_warp():
    with pytest.raises(ProfileError):
        manifold.MetricProfile(
            n=3, r_max=8.0, name="bad",
            f=np.sin, f_prime=np.cos, f_second=lambda r: -np.sin(r))


def test_sphere_needs_r_max_below_pi():
    with pytest.raises(ProfileError):
        manifold.sphere(3, r_max=3.5)


def test_power_bump_parameter_guards():
    with pytest.raises(ProfileError):
        manifold.power_bump(3, a=1.0, b=0.0)
    with pytest.raises(ProfileError):
        manifold.power_bump(3, a=-3.0, b=1.0)  # a <= -b e


def test_check_radius():
    prof = manifold.euclidean(3, r_max=5.0)
    prof.check_radius(5.0)
    with pytest.raises(DomainError):
        prof.check_radius(5.1)
    with pytest.raises(DomainError):
        prof.check_radius(-0.1)


# -- scalar curvature --------------------------------------------------------


def test_space_form_curvatures():
    # [TRIVIAL] flat R = 0; hyperbolic R = -n(n-1); sphere R = +n(n-1).
    r = np.linspace(0.0, 2.0, 64)
    for n in (3, 4, 5):
        assert np.allclose(manifold.euclidean(n).scalar_curvature(r), 0.0,
                           atol=1e-9)
        assert np.allclose(manifold.hyperbolic(n).scalar_curvature(r),
                           -n * (n - 1), rtol=1e-9)
        assert np.allclose(
            manifold.sphere(n).scalar_curvature(np.linspace(0, 2.0, 64)),
            n * (n - 1), rtol=1e-9)


def test_cigar_curvature_limits():
    # [DERIVED] pole value from the series R(0) = -6 c3 n(n-1) with
    # c3 = -1/3 (tanh r = r - r^3/3 + ...), so R(0) = 12 for n = 3;
    # far limit (n-1)(n-2)/1 = 2 on the unit cylinder end.
    prof = manifold.cigar(3, r_max=50.0)
    assert prof.scalar_curvature(0.0) == pytest.approx(12.0, rel=1e-12)
    assert prof.scalar_curvature(30.0) == pytest.approx(2.0, rel=1e-6)


def test_cigar_slope_bit_identical_and_warning_free():
    # f' = sech^2 r: unchanged bits for |r| <= 300, 0.0 and no overflow
    # warning far out (scalar_lower_bound samples up to r_max = 1e8).
    prof = manifold.cigar(3, r_max=1e8)
    r = np.linspace(-300.0, 300.0, 60001)
    assert np.array_equal(prof.f_prime(r), 1.0 / np.cosh(r) ** 2)
    assert prof.f_prime(2.0) == 1.0 / np.cosh(2.0) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prof.f_prime(1e8) == 0.0
        assert np.all(prof.f_prime(np.array([301.0, 710.0, 1e8])) == 0.0)
        prof.scalar_curvature(np.linspace(0.0, 1e8, 16384))


def test_pole_series_matches_direct_formula():
    # The series branch must join the direct formula continuously.
    prof = manifold.power_bump(3, a=1.5, b=0.7, r_max=10.0)
    near = prof.scalar_curvature(9e-5)    # series branch
    direct = prof.scalar_curvature(2e-4)  # direct branch
    assert near == pytest.approx(direct, rel=1e-4)


def test_scalar_curvature_scalar_in_scalar_out():
    prof = manifold.hyperbolic(3)
    out = prof.scalar_curvature(1.0)
    assert isinstance(out, float)
    assert out == pytest.approx(-6.0, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-0.2, 4.0), b=st.floats(0.2, 2.0))
def test_bump_pole_curvature_series(a, b):
    # R(0) = -6 a n (n-1) for the bump family (c3 = a).
    prof = manifold.power_bump(3, a=a, b=b, r_max=10.0)
    assert prof.scalar_curvature(0.0) == pytest.approx(-36.0 * a, abs=1e-9)


def _masked_scalar_curvature(profile, r):
    """scalar_curvature as it was written with pole masks: the formula on
    the gathered radii r >= 1e-4 only, the pole series scattered into the
    others."""
    profile.check_radius(r)
    r = np.asarray(r, dtype=float)
    scalar_input = r.ndim == 0
    r = np.atleast_1d(r)
    n = profile.n
    out = np.empty_like(r)
    pole = r < 1e-4
    if np.any(~pole):
        rr = r[~pole]
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


def _curvature_profiles():
    t = np.linspace(0.0, 12.0, 400)
    return {
        "flat3": manifold.euclidean(3, 1e8),
        "bump3": manifold.power_bump(3, -0.5, 0.25, 1e8),
        "bump5": manifold.power_bump(5, 1.0, 1.0, 20.0),
        "cigar3": manifold.cigar(3, 1e8),
        "hyperbolic3": manifold.hyperbolic(3, 30.0),
        "sphere4": manifold.sphere(4),
        "table3": manifold.from_table(
            3, t, t * (1.0 + 0.3 * t**2 * np.exp(-t**2)), 12.0),
    }


@pytest.mark.parametrize("name", list(_curvature_profiles()))
def test_scalar_curvature_bits_match_masked_formula(name):
    # One pass of the formula over every radius, the pole series written
    # over r < 1e-4 afterwards: the same operations on each element as
    # the masked gather and scatter, so the same bits, and no warning
    # from the divisions by f(0) = 0 that the series overwrites.
    prof = _curvature_profiles()[name]
    radius_sets = (
        np.linspace(0.0, min(8.0, prof.r_max), 1025),
        RadialGrid(j=2.0, N=256).nodes,
        _lower_bound_samples(prof.r_max),
        np.array([0.0, 1e-8, 5e-5, 9.99e-5, 1e-4, 1.0000001e-4, 2e-4]),
        np.array([2.0, 0.0, 1.0, 5e-5, 0.5, 1e-4, 0.25]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in radius_sets:
            got = prof.scalar_curvature(r)
            assert got.tobytes() == _masked_scalar_curvature(prof, r).tobytes()
        for r in (0.0, 1.3):
            got = prof.scalar_curvature(r)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(
                _masked_scalar_curvature(prof, r)).tobytes()


def test_scalar_curvature_overflow_error_unchanged():
    # sinh r overflows past r ~ 710: both forms refuse the same radii with
    # the same error.
    prof = manifold.hyperbolic(3, 1e8)
    r = _lower_bound_samples(prof.r_max)
    with pytest.raises(DomainError) as masked:
        _masked_scalar_curvature(prof, r)
    with pytest.raises(DomainError) as got:
        prof.scalar_curvature(r)
    assert str(got.value) == str(masked.value)


# -- volume growth -----------------------------------------------------------


def test_flat_growth_exponent_zero():
    growth = manifold.volume_growth_exponent(manifold.euclidean(3, 100.0),
                                             (10.0, 80.0))
    assert not growth.exponential
    assert growth.rho == pytest.approx(0.0, abs=1e-6)


def test_hyperbolic_growth_flagged_exponential():
    growth = manifold.volume_growth_exponent(manifold.hyperbolic(3, 30.0),
                                             (10.0, 28.0))
    assert growth.exponential
    assert growth.rho is None


def test_cigar_growth_exponent():
    # Cylinder end: V(r) ~ r, i.e. rho = 1 - n = -2 in dimension 3.
    growth = manifold.volume_growth_exponent(manifold.cigar(3, 200.0),
                                             (50.0, 180.0))
    assert not growth.exponential
    assert growth.rho == pytest.approx(-2.0, abs=0.05)


def test_growth_window_validation():
    prof = manifold.euclidean(3, 10.0)
    with pytest.raises(DomainError):
        manifold.volume_growth_exponent(prof, (5.0, 2.0))


# -- table profiles ----------------------------------------------------------


def test_table_profile_roundtrip(tmp_path):
    r = np.linspace(0.0, 5.0, 201)
    path = tmp_path / "sinh.csv"
    lines = ["r,f"] + [f"{ri},{math.sinh(ri)}" for ri in r]
    path.write_text("\n".join(lines) + "\n")
    prof = manifold.load_table_csv(3, path, r_max=5.0)
    assert prof.name == "table"
    # Spline interpolation reproduces the function and its curvature.
    assert float(prof.f(2.345)) == pytest.approx(math.sinh(2.345), rel=1e-8)
    assert prof.scalar_curvature(2.0) == pytest.approx(-6.0, rel=1e-4)


def test_table_requires_header_and_density(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,0\n1,1\n")
    with pytest.raises(ProfileError):
        manifold.load_table_csv(3, path, r_max=1.0)
    with pytest.raises(ProfileError):
        manifold.from_table(3, np.linspace(0, 1, 5), np.linspace(0, 1, 5),
                            r_max=1.0)


@pytest.mark.parametrize("r, f", [
    (np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, math.nan, 0.8]),
     np.linspace(0.0, 0.8, 9)),
    (np.linspace(0.0, 0.8, 9),
     np.array([0.0, 0.1, 0.2, 0.3, math.inf, 0.5, 0.6, 0.7, 0.8])),
])
def test_table_rejects_non_finite_samples(r, f):
    # A nan radius passes the increasing-radii check (nan <= 0 is false).
    with pytest.raises(ProfileError, match="finite"):
        manifold.from_table(3, r, f, r_max=1.0)


# -- the not-a-knot spline ---------------------------------------------------


def _spline_knots():
    """Uniform knots (25, and the minimum 4), then random knots with
    log-uniform spacings of ratio up to 1e2, 1e3 and 1e4, random values,
    an offset and a scale.

    The random sets hold 5 or more knots: the single cubic through 4
    clustered knots is ill-conditioned.  On 4 knots of spacing ratio 800
    this spline and scipy's are each 3e-11 off the exact one (computed in
    rational arithmetic) and 2.5e-12 off each other.
    """
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 3.0, 25)
    cases = [(x, np.sin(2.0 * x)), (x[:4], np.array([1.0, -2.0, 0.5, 3.0]))]
    for ratio in (1e2, 1e3, 1e4):
        for size in (5, 9, 60):
            dx = np.exp(rng.uniform(0.0, math.log(ratio), size - 1))
            x = rng.uniform(-5.0, 5.0) + np.concatenate(
                [[0.0], np.cumsum(dx)]) * 10.0 ** rng.uniform(-2.0, 2.0)
            cases.append((x, rng.normal(size=size)
                          * 10.0 ** rng.uniform(-3.0, 3.0)))
    return cases


@pytest.mark.parametrize("x, y", _spline_knots())
@pytest.mark.parametrize("nu", [0, 1, 2])
def test_spline_matches_scipy_cubic_spline(x, y, nu):
    # scipy's default CubicSpline is the reference: values and first and
    # second derivatives at the knots, between them and past both ends.
    from scipy.interpolate import CubicSpline

    dx = np.diff(x)
    t = np.concatenate([x, x[:-1] + 0.5 * dx, x[:-1] + 0.1 * dx,
                        [x[0] - dx[0], x[-1] + dx[-1]]])
    expected = CubicSpline(x, y)(t, nu)
    got = manifold.NotAKnotSpline(x, y)(t, nu)
    assert np.max(np.abs(got - expected)) <= \
        1e-12 * np.max(np.abs(expected))


def test_spline_scalar_in_scalar_out():
    x = np.linspace(0.0, 1.0, 9)
    spline = manifold.NotAKnotSpline(x, x**3)
    # A cubic is reproduced exactly, to rounding.
    assert np.ndim(spline(0.5)) == 0
    assert float(spline(0.5)) == pytest.approx(0.125, rel=1e-14)
    assert float(spline(0.5, 2)) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(DomainError, match="derivative order"):
        spline(0.5, 3)


@pytest.mark.parametrize("x, y, message", [
    ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], "strictly increase"),
    ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0], "strictly increase"),
    ([0.0, 1.0, math.nan, 3.0], [0.0, 1.0, 2.0, 3.0], "finite"),
    ([0.0, 1.0, 2.0, 3.0], [0.0, math.inf, 2.0, 3.0], "finite"),
    ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], ">= 4"),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0], ">= 4"),
])
def test_spline_rejects_bad_knots(x, y, message):
    with pytest.raises(DomainError, match=message):
        manifold.NotAKnotSpline(x, y)


def test_make_profile_dispatch():
    prof = manifold.make_profile("power_bump", n=4, r_max=12.0,
                                 params={"a": 1.0, "b": 1.0}, table_path=None)
    assert prof.n == 4 and prof.name == "power_bump"
    with pytest.raises(ProfileError):
        manifold.make_profile("moebius", n=3, r_max=1.0, params={},
                              table_path=None)
    with pytest.raises(ProfileError):
        manifold.make_profile("table", n=3, r_max=1.0, params={},
                              table_path=None)


@pytest.mark.parametrize("name, params", [
    ("euclidean", {"a": 1}),
    ("cigar", {"b": 0.5}),
    ("table", {"a": 1.0}),
    ("power_bump", {"a": 1.0}),
    ("power_bump", {"a": 1.0, "b": 1.0, "c": 1.0}),
    ("power_bump", {"a": "x", "b": 1.0}),
    ("power_bump", {"a": True, "b": 1.0}),
    ("power_bump", {"a": math.nan, "b": 1.0}),
    ("power_bump", {"a": 1.0, "b": 10**400}),
])
def test_make_profile_checks_params(name, params):
    # Each family takes exactly its own params, as finite real numbers.
    with pytest.raises(ProfileError, match=f"profile '{name}' takes params"):
        manifold.make_profile(name, n=3, r_max=10.0, params=params,
                              table_path=None)
