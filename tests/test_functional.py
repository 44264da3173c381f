"""Quotients: bubbles, exterior estimates, scalar lower bounds."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad, solve_bvp
from scipy.optimize import brentq

from yamabe_lab import functional, manifold
from yamabe_lab.config import load_config, profile_from_config
from yamabe_lab.constants import (area_weight, conformal_coupling,
                                  critical_exponent)
from yamabe_lab.errors import ConvergenceError, DomainError, StabilizationError
from yamabe_lab.functional import (BubbleSpec, bubble_quotient, bubble_values,
                                   cylinder_length, exterior_quotient,
                                   lambda_constant, radial_cylinder_quotient,
                                   scalar_lower_bound)
from yamabe_lab.manifold import MetricProfile


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
    q_coarse = bubble_quotient(prof, BubbleSpec(alpha=0.2, eps=0.5))
    q_fine = bubble_quotient(prof, BubbleSpec(alpha=0.002, eps=0.5))
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


def test_flat_bubble_excess_matches_quad(monkeypatch):
    # The n = 5 excess Q - Lambda decays like (alpha/eps)^{n-2} = alpha^3
    # (the cut-off tail; acceptance criterion 3).  The quadrature oracle
    # fixes that rate independently of the grid, the grid agrees at
    # alpha/eps = 0.2 and 0.1, and at 0.05 it converges to the oracle at
    # second order (the default N = 4096 reads ~10% high there).  At
    # alpha = 0.025 the node floor _MIN_BUBBLE_NODES sets N, so raising
    # the floor refines the grid.
    n, eps = 5, 0.5
    prof = manifold.euclidean(n, r_max=10.0)
    lam = lambda_constant(n)
    alphas = (0.1, 0.05, 0.025)
    oracle = [_quad_bubble_excess(n, a, eps) for a in alphas]
    slope = float(np.polyfit(np.log(alphas), np.log(oracle), 1)[0])
    assert 3.0 - 0.35 <= slope <= 3.0 + 0.35
    for a, want in zip(alphas[:2], oracle[:2]):
        got = bubble_quotient(prof, BubbleSpec(alpha=a, eps=eps))
        assert got - lam == pytest.approx(want, rel=0.01)
    errors = []
    for nodes in (4096, 8192, 16384):
        monkeypatch.setattr(functional, "_MIN_BUBBLE_NODES", nodes)
        got = bubble_quotient(prof, BubbleSpec(alpha=alphas[2], eps=eps))
        errors.append(abs(got - lam - oracle[2]) / oracle[2])
    assert errors[2] < 0.01
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= math.log2(coarse / fine) <= 2.2


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


def test_cylinder_length_keeps_digits_below_quad_epsabs():
    # [DERIVED] int_20^inf dr/sinh r = -ln tanh 10 = 4.12e-9, below
    # quad's default absolute tolerance 1.49e-8: the relative tolerance
    # alone must hold.
    q = math.exp(-20.0)
    exact = math.log1p(q) - math.log1p(-q)  # -ln tanh 10
    length = cylinder_length(manifold.hyperbolic(3, r_max=1e8), 20.0, 1e8)
    assert length == pytest.approx(exact, rel=1e-7, abs=0.0)


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
              for length in (0.05, 0.2723, 5.0, 15.0, 25.0, 40.0, 1e3, 1e6,
                             1e300)]
    for shorter, longer in zip(values, values[1:]):
        assert longer <= shorter * (1.0 + 1e-13)
    assert min(values) >= lam * (1.0 - 1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_radial_cylinder_quotient_takes_long_lengths_at_the_cap(n):
    # Past 80/sqrt(a) the value is Lambda(n) to rounding, and the peak
    # offset exp(-sqrt(a) length) would underflow near length 1500.
    cap = 80.0 / math.sqrt(((n - 2) / 2.0) ** 2)
    at_cap = radial_cylinder_quotient(n, cap)
    assert at_cap == pytest.approx(lambda_constant(n), rel=1e-14, abs=0.0)
    for length in (1e3, 1e6, 1e300):
        assert radial_cylinder_quotient(n, length) == at_cap


def _cylinder_guess(length: float, kind: str, t):
    """(u, u') of a start for -u'' + u/4 = u^5 on [0, length]: a sine, or
    the infinite cylinder's bubble m_0 cosh(t/2)^(-1/2) centred on the
    segment and shifted down to vanish at its ends."""
    if kind == "sine":
        k = math.pi / length
        return np.vstack([np.sin(k * t), k * np.cos(k * t)])
    m_0, z = 0.75 ** 0.25, 0.5 * (t - 0.5 * length)
    return np.vstack([m_0 * (np.cosh(z) ** -0.5
                             - math.cosh(0.25 * length) ** -0.5),
                      -0.25 * m_0 * np.cosh(z) ** -1.5 * np.sinh(z)])


@pytest.mark.parametrize("length, guess", [(5.0, "sine"), (15.0, "bubble")])
def test_radial_cylinder_quotient_matches_solve_bvp(length, guess):
    # scipy's collocation solve of -u'' + a u = u^{p-1}, u(0) = u(L) = 0,
    # at n = 3 (a = 1/4, p = 6), where Q = (|S^2| int u^p)^{2/3}.  The
    # bubble start on the short segment would converge to u = 0, so the
    # solve must end positive.
    p, a = critical_exponent(3), 0.25

    def rhs(t, y):
        return np.vstack([y[1], a * y[0] - np.abs(y[0]) ** (p - 2.0) * y[0]])

    t = np.linspace(0.0, length, 101)
    sol = solve_bvp(rhs, lambda ya, yb: np.array([ya[0], yb[0]]), t,
                    _cylinder_guess(length, guess, t), tol=1e-10,
                    max_nodes=100_000)
    assert sol.status == 0
    assert np.max(sol.y[0]) > 0.0
    mass = quad(lambda x: abs(float(sol.sol(x)[0])) ** p, 0.0, length,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert (area_weight(3) * mass) ** (2.0 / 3.0) == pytest.approx(
        radial_cylinder_quotient(3, length), rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("n", range(3, 13))
def test_length_cap_meets_the_near_limit_rule(n):
    # exterior_quotient has no length-cap rule: a segment truncated to
    # LENGTH_CAP is stabilized because its value is near Lambda(n).
    assert radial_cylinder_quotient(n, functional.LENGTH_CAP) \
        <= lambda_constant(n) * (1.0 + functional._TOL_OUT)


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


# repr of exterior_quotient(...).value on the shipped configs at each of
# their r_in entries.  Against the adaptive quadrature that Q_rad used
# before its fixed panels: flat3 at 1.0 moved from 5.479763850037428
# (+1.6e-16 relative) and cigar3 from 5.477904127867049 (+4.9e-16,
# toward the 40-digit 5.4779041278670529179); the other four are
# unchanged.
_EXTERIOR_GOLDEN = {
    ("flat3", 1.0): "5.479763850037429",
    ("flat3", 2.0): "5.4805340989187545",
    ("bump3", 1.0): "5.47855826064771",
    ("bump3", 2.0): "5.479537849444248",
    ("cigar3", 2.0): "5.477904127867052",
    ("cigar3", 4.0): "5.477904127867052",
    ("hyperbolic3", 2.0): "215.40232124534097",
}


@pytest.mark.parametrize("name", ["flat3", "bump3", "cigar3", "hyperbolic3"])
def test_exterior_quotient_golden_on_shipped_configs(configs_dir, name):
    config = load_config(configs_dir / f"{name}.json")
    profile = profile_from_config(config)
    got = {(name, r_in): repr(exterior_quotient(profile, r_in).value)
           for r_in in config.pipeline.r_in}
    assert got == {key: value for key, value in _EXTERIOR_GOLDEN.items()
                   if key[0] == name}


def test_radial_cylinder_quotient_rejects_lengths_outside_0_inf():
    # 0 (r/f underflowing on the whole exterior) used to raise the bracket
    # until math.exp overflowed; -1, nan and inf ended in OverflowError,
    # a ValueError from inside the root finder and ZeroDivisionError.
    for length in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="0 < length < inf"):
            radial_cylinder_quotient(3, length)


@pytest.mark.parametrize("length", [1e-100])
def test_radial_cylinder_quotient_beyond_float64(length):
    # The u^p integral overflows on very short segments.
    with pytest.raises(DomainError, match="beyond float64"):
        radial_cylinder_quotient(3, length)


def test_exterior_quotient_rejects_zero_conformal_length():
    # sinh r overflows on all of [750, 800], so r/f is 0 at every node.
    prof = manifold.hyperbolic(3, r_max=800.0)
    assert cylinder_length(prof, 750.0, 800.0) == 0.0
    with pytest.raises(DomainError, match="conformal length .* is 0"):
        exterior_quotient(prof, 750.0)


# -- numpy quadrature and root finder against scipy --------------------------


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _oracle_profile(name: str) -> MetricProfile:
    if name == "table":
        # a tabulated cigar, spline-interpolated between samples
        r = np.linspace(0.0, 20.0, 401)
        return manifold.from_table(3, r, np.tanh(r), r_max=20.0)
    if name == "hyperbolic-1e8":  # sinh overflows past r ~ 710
        return manifold.hyperbolic(3, r_max=1e8)
    return profile_from_config(load_config(_CONFIGS / f"{name}.json"))


def _scipy_cylinder_length(profile, r_in, r_out):
    """cylinder_length as it was written on scipy.integrate.quad."""
    def integrand(x):
        r = r_in * math.exp(x)
        return r / float(profile.f(r))

    with np.errstate(over="ignore"):
        return quad(integrand, 0.0, math.log(r_out / r_in), epsabs=0.0,
                    limit=200)[0]


@pytest.mark.parametrize("name", ["flat3", "bump3", "cigar3", "hyperbolic3",
                                  "table", "hyperbolic-1e8"])
def test_cylinder_length_matches_scipy_quad(name):
    # The same 21-point rule, error estimate and bisection order as
    # QUADPACK's: only the order of the rule's sums differs.  On
    # hyperbolic space at r_in = 20 the first panel's error estimate is
    # saturated (equal to resasc), which forces a bisection.
    prof = _oracle_profile(name)
    for r_in in (0.5, 1.0, 2.0, 4.0, 8.0, 20.0):
        if r_in >= prof.r_max:
            continue
        for r_out in (min(2.0 * r_in, prof.r_max), prof.r_max):
            expected = _scipy_cylinder_length(prof, r_in, r_out)
            assert cylinder_length(prof, r_in, r_out) == pytest.approx(
                expected, rel=1e-14, abs=0.0), (r_in, r_out)


def _scipy_cylinder_root(n, length):
    """(ln(m - m_0), integral) of radial_cylinder_quotient as it was
    written on scipy's quad and brentq, with the bracket
    [-sqrt(a) length, 0] widened by 10."""
    p = 2.0 * n / (n - 2)
    a = ((n - 2) / 2.0) ** 2
    u_star = a ** (1.0 / (p - 2.0))
    m_0 = (0.5 * a * p) ** (1.0 / (p - 2.0))

    def integral(log_offset, k):
        offset = math.exp(log_offset)
        m = m_0 + offset
        c = a * m * m * math.expm1((p - 2.0) * math.log1p(offset / m_0))
        scale, d = math.sqrt(c / a), m - u_star

        def inner(z):
            u = scale * math.sinh(z)
            share = 2.0 / p * u ** p / (c + a * u * u)
            return u ** k / math.sqrt(a * (1.0 - share))

        def outer(y):
            gap = d * y * y
            u = m - gap
            slope = -m ** p * math.expm1(p * math.log1p(-gap / m)) / gap
            return 2.0 * math.sqrt(d) * u ** k / math.sqrt(
                2.0 / p * slope - a * (m + u))

        z_star = math.asinh(u_star / scale)
        return 2.0 * (
            quad(inner, 0.0, z_star, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            + quad(outer, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0])

    lo, hi = -math.sqrt(a) * length, 0.0
    while integral(hi, 0.0) > length:
        hi += 10.0
    while integral(lo, 0.0) < length:
        lo -= 10.0
    log_offset = brentq(lambda x: integral(x, 0.0) - length, lo, hi,
                        xtol=1e-14)
    return log_offset, integral


def _scipy_radial_cylinder_quotient(n, length):
    log_offset, integral = _scipy_cylinder_root(n, length)
    return (area_weight(n) * integral(log_offset, 2.0 * n / (n - 2))) ** (
        2.0 / n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_radial_cylinder_quotient_matches_scipy_arithmetic(n):
    # The bracket and the root finder's path differ, and so does the
    # quadrature's summation order; the value stays within 1e-14.
    for length in (0.05, 0.1, 0.2723, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0,
                   17.7, 20.5, 25.0, 30.0, 40.0):
        assert radial_cylinder_quotient(n, length) == pytest.approx(
            _scipy_radial_cylinder_quotient(n, length), rel=1e-14,
            abs=0.0), length


def _mpmath_radial_cylinder_quotient(mp, n, length):
    """radial_cylinder_quotient at 30 digits: the same substitutions,
    mpmath.quad (tanh-sinh) with the inner piece split 2 below z*, and
    findroot's secant steps from the scipy root."""
    with mp.workdps(30):
        p = mp.mpf(2 * n) / (n - 2)
        a = (mp.mpf(n - 2) / 2) ** 2
        u_star = a ** (1 / (p - 2))
        m_0 = (a * p / 2) ** (1 / (p - 2))

        def integral(log_offset, k):
            offset = mp.exp(log_offset)
            m = m_0 + offset
            c = a * m * m * mp.expm1((p - 2) * mp.log1p(offset / m_0))
            scale, d = mp.sqrt(c / a), m - u_star

            def inner(z):
                u = scale * mp.sinh(z)
                share = 2 / p * u ** p / (c + a * u * u)
                return u ** k / mp.sqrt(a * (1 - share))

            def outer(y):
                gap = d * y * y
                u = m - gap
                slope = -m ** p * mp.expm1(p * mp.log1p(-gap / m)) / gap
                return 2 * mp.sqrt(d) * u ** k / mp.sqrt(
                    2 / p * slope - a * (m + u))

            z_star = mp.asinh(u_star / scale)
            return 2 * (mp.quad(inner, [0, max(z_star - 2, 0), z_star])
                        + mp.quad(outer, [0, 1]))

        start = mp.mpf(_scipy_cylinder_root(n, length)[0])
        log_offset = mp.findroot(lambda x: integral(x, 0) - length,
                                 (start, start + mp.mpf(1e-9)),
                                 solver="secant", tol=1e-20, verify=False)
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return (area * integral(log_offset, p)) ** (mp.mpf(2) / n)


@pytest.mark.parametrize("n, length", [
    (3, 0.2723), (3, 17.7), (3, 40.0), (4, 0.2723), (4, 17.7), (4, 40.0),
    (5, 0.2723), (5, 17.7), (5, 40.0), (3, 0.05), (8, 0.036), (10, 0.1)])
def test_radial_cylinder_quotient_matches_mpmath(n, length):
    # A 30-digit evaluation of the same first integral: the fixed Kronrod
    # panels and the float64 root land within a few ulps of it.  At
    # n = 8 and 10, where u^p branches at u = 0, equal outer panels and
    # one bottom panel were 3.8e-14 and 9.8e-14 off.
    mp = pytest.importorskip("mpmath")
    expected = _mpmath_radial_cylinder_quotient(mp, n, length)
    got = radial_cylinder_quotient(n, length)
    assert abs(float((got - expected) / expected)) <= 4e-15


_BRENT_CASES = [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
    # steep: bisection steps until the bracket is short
    (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 1.0),
    # a root at an end of the bracket
    (lambda x: x * (x + 1.0), 0.0, 2.0),
]


@pytest.mark.parametrize("case", range(len(_BRENT_CASES)))
@pytest.mark.parametrize("xtol", [1e-14, 2e-12, 1e-6])
def test_brent_matches_scipy_brentq(case, xtol):
    f, lo, hi = _BRENT_CASES[case]
    expected, info = brentq(f, lo, hi, xtol=xtol, full_output=True)
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    assert functional._brent(counted, lo, hi, f(lo), f(hi),
                             xtol=xtol) == expected
    # The bracket's values come from the caller.
    assert len(calls) == info.function_calls - 2


def test_brent_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError):
        brentq(math.exp, 0.0, 1.0)
    with pytest.raises(DomainError, match="different signs"):
        functional._brent(math.exp, 0.0, 1.0, 1.0, math.e, xtol=1e-14)


def test_quad_raises_when_200_panels_miss_the_tolerance():
    # sign(sin(300 x)) jumps 95 times on [0, 1]: each jump needs about 40
    # bisections before its panel's error is below 1e-13 of the integral.
    def f(x):
        return np.sign(np.sin(300.0 * x))

    with pytest.raises(ConvergenceError, match="200 panels"):
        functional._quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)
    # QUADPACK runs out of panels too, and only warns.
    with pytest.warns(IntegrationWarning):
        quad(lambda x: float(f(x)), 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
             limit=200)


@pytest.mark.parametrize("f", [lambda x: x * x, np.exp,
                               lambda x: 1.0 / (1.0 + 25.0 * x * x)])
def test_qk21_matches_quadpack_on_one_panel(f):
    # With limit = 1, quad returns dqk21's integral and error estimate of
    # the whole interval: the Gauss-Kronrod difference scaled by resasc
    # (Runge's function), or the roundoff floor 50 eps resabs where the
    # rule is exact (x^2) or nearly so (exp).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, error = quad(lambda x: float(f(x)), -1.0, 1.0, limit=1)
    area, err, _ = functional._qk21(f, -1.0, 1.0)
    assert area == pytest.approx(value, rel=1e-15, abs=0.0)
    assert err == pytest.approx(error, rel=1e-12, abs=0.0)


def test_quad_matches_scipy_quad_on_smooth_integrands():
    # Where QUADPACK's extrapolation takes over (endpoint singularities
    # such as sqrt x at 0), the two differ within the tolerance only.
    for f, lo, hi in ((np.exp, 0.0, 30.0),
                      (lambda x: np.exp(-x * x), -10.0, 10.0),
                      (lambda x: 1.0 / (1.0 + x * x), -50.0, 50.0),
                      (lambda x: np.cos(20.0 * x), 0.0, 3.0)):
        expected = quad(lambda x: float(f(x)), lo, hi, limit=200)[0]
        assert functional._quad(f, lo, hi) == pytest.approx(
            expected, rel=1e-14, abs=1e-15)


# -- scalar lower bound ------------------------------------------------------


def test_scalar_lower_bound_nonnegative_curvature_zero():
    assert scalar_lower_bound(manifold.euclidean(3, 50.0)).value == 0.0
    low = scalar_lower_bound(manifold.cigar(3, 50.0))
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


# repr of scalar_lower_bound(profile).value as the bound computed it when
# it integrated every sample, R >= 0 included.
_LOWER_BOUND_GOLDEN = {
    "bump3": (lambda: manifold.power_bump(3, -0.5, 0.25, 1e8),
              "-5.0017448190172"),
    "bump3-r100": (lambda: manifold.power_bump(3, -0.5, 0.25, 100.0),
                   "-5.001742735824253"),
    "bump5": (lambda: manifold.power_bump(5, -0.5, 0.25, 1e8),
              "-18.11579424275181"),
    "flat3": (lambda: manifold.euclidean(3, 1e8), "0.0"),
    "cigar3": (lambda: manifold.cigar(3, 1e8), "0.0"),
    "sphere3": (lambda: manifold.sphere(3), "0.0"),
    "hyperbolic3-r30": (lambda: manifold.hyperbolic(3, 30.0), "None"),
    "hyperbolic3-r1e8": (lambda: manifold.hyperbolic(3, 1e8), "None"),
}


@pytest.mark.parametrize("name", list(_LOWER_BOUND_GOLDEN))
def test_scalar_lower_bound_golden_values(name):
    make, expected = _LOWER_BOUND_GOLDEN[name]
    low = scalar_lower_bound(make())
    assert repr(low.value) == expected
    assert low.divergent == (expected == "None")


def test_scalar_lower_bound_bump_oracle():
    # Independent quadrature of -c(3) (int (R_-)^{3/2} dV)^{2/3} for the
    # localized-negative-curvature bump.
    prof = manifold.power_bump(3, a=1.0, b=1.0, r_max=20.0)

    def integrand(t):
        return max(-prof.scalar_curvature(t), 0.0) ** 1.5 \
            * float(prof.f(t)) ** 2

    total, _ = quad(integrand, 0.0, 20.0, limit=400)
    oracle = -conformal_coupling(3) * (4 * math.pi * total) ** (2.0 / 3.0)
    low = scalar_lower_bound(prof)
    assert not low.divergent
    assert low.value == pytest.approx(oracle, rel=1e-3)
    assert low.value < 0.0
