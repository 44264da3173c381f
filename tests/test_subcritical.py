"""Eigenpairs, the subcritical Newton solver, and the continuation."""

import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded as scipy_solve_banded
from scipy.optimize import minimize

from yamabe_lab import manifold, subcritical
from yamabe_lab.constants import conformal_coupling, critical_exponent
from yamabe_lab.errors import DomainError
from yamabe_lab.radial import (RadialField, RadialGrid, lp_norm,
                               midpoint_weights, node_weights, yamabe_energy)
from yamabe_lab.subcritical import (DiscreteOperator, continue_to_critical,
                                    default_schedule, first_eigenpair,
                                    solve_subcritical)


# -- first eigenpair ---------------------------------------------------------


def test_flat_ball_dirichlet_eigenvalue():
    # [DERIVED] lowest Dirichlet eigenvalue of -Delta on the unit ball of
    # R^3 is pi^2 (eigenfunction sin(pi r)/r).
    prof = manifold.euclidean(3, r_max=10.0)
    lam, u = first_eigenpair(DiscreteOperator(prof, RadialGrid(j=1.0, N=512)))
    assert lam == pytest.approx(math.pi**2, rel=1e-5)
    oracle = np.sinc(u.grid.nodes)  # sin(pi r)/(pi r), same shape
    oracle[-1] = 0.0
    oracle /= lp_norm(u.with_values(oracle), 2.0, prof)
    assert np.max(np.abs(u.values - oracle)) < 1e-4


def test_eigenfield_positive_and_normalized():
    prof = manifold.hyperbolic(3, r_max=10.0)
    lam, u = first_eigenpair(DiscreteOperator(prof, RadialGrid(j=2.0, N=256)))
    assert np.all(u.values >= 0.0)
    assert lp_norm(u, 2.0, prof) == pytest.approx(1.0, rel=1e-12)
    # [DERIVED] sin(k r)/sinh(r) solves -Delta u = (k^2 + 1) u on H^3, so
    # with the c(3) R = -3/4 shift the ball-radius-2 eigenvalue is
    # pi^2/4 + 1 - 3/4.
    assert lam == pytest.approx(math.pi**2 / 4.0 + 0.25, rel=1e-4)


# -- solver contract ---------------------------------------------------------

_FAMILIES = [
    lambda: manifold.euclidean(3, r_max=50.0),
    lambda: manifold.hyperbolic(3, r_max=50.0),
    lambda: manifold.cigar(3, r_max=50.0),
    lambda: manifold.power_bump(3, a=0.5, b=1.0, r_max=50.0),
]


def _random_case(rng, k):
    prof = _FAMILIES[k % len(_FAMILIES)]()
    j = float(rng.uniform(1.0, 3.0))
    s = float(rng.uniform(2.3, 4.5))
    return prof, RadialGrid(j=j, N=48), s


def _oracle_quotient(prof, grid, s, start, rng):
    """Independent minimizer of Q_s through the quadrature API only."""

    def quotient(interior):
        f = RadialField(grid, np.concatenate([interior, [0.0]]),
                        boundary="dirichlet")
        return yamabe_energy(f, prof) / lp_norm(f, s, prof) ** 2

    x0 = start * (1.0 + 0.05 * rng.standard_normal(start.size))
    res = minimize(quotient, x0, method="BFGS",
                   options={"gtol": 1e-10, "maxiter": 2000})
    return float(res.fun)


def el_residual(u: RadialField, profile, lam: float, s: float) -> float:
    """Discrete L^2 norm of Delta u - c(n) R_g u + lam |u|^{s-2} u of a
    dirichlet field, through the solver's weak tridiagonal operator, so a
    converged solve reports its own Newton residual."""
    op = DiscreteOperator(profile, u.grid)
    vec = u.values[op.lo:op.hi]
    res = op.apply(vec) - lam * op.weights() * np.sign(vec) \
        * np.abs(vec) ** (s - 1.0)
    return op.strong_norm(res)


@pytest.mark.parametrize("k", range(20))
def test_solver_contract_randomized(k):
    # Contract: tiny weak residual, lam equals the Rayleigh quotient,
    # nonnegative normalized minimizer, and agreement with an
    # independently minimized quotient to 1e-4.
    rng = np.random.default_rng(1000 + k)
    prof, grid, s = _random_case(rng, k)
    sol = solve_subcritical(DiscreteOperator(prof, grid), s)
    assert sol.residual <= 1e-10
    assert np.all(sol.field.values >= 0.0)
    assert sol.field.values[-1] == 0.0
    assert lp_norm(sol.field, s, prof) == pytest.approx(1.0, rel=1e-10)
    rayleigh = yamabe_energy(sol.field, prof) / lp_norm(sol.field, s,
                                                        prof) ** 2
    assert sol.lam == pytest.approx(rayleigh, rel=1e-10)
    assert el_residual(sol.field, prof, sol.lam, s) == pytest.approx(
        sol.residual, abs=1e-9)
    lam_oracle = _oracle_quotient(prof, grid, s, sol.field.values[:-1], rng)
    assert sol.lam == pytest.approx(lam_oracle, rel=1e-4)


def test_solver_rejects_bad_exponent():
    prof = manifold.euclidean(3, r_max=10.0)
    op = DiscreteOperator(prof, RadialGrid(j=1.0, N=64))
    with pytest.raises(DomainError):
        solve_subcritical(op, 2.0)
    with pytest.raises(DomainError):
        solve_subcritical(op, 6.5)


def test_solver_rejects_foreign_init():
    prof = manifold.euclidean(3, r_max=10.0)
    grid = RadialGrid(j=1.0, N=64)
    other = RadialGrid(j=1.0, N=128)
    init = RadialField(other, np.zeros(129), boundary="dirichlet")
    with pytest.raises(DomainError):
        solve_subcritical(DiscreteOperator(prof, grid), 3.0, init=init)


def test_lambda_s_continuity_at_two():
    # lambda_s -> first eigenvalue as s -> 2 on the unit flat ball.
    prof = manifold.euclidean(3, r_max=10.0)
    grid = RadialGrid(j=1.0, N=512)
    sol = solve_subcritical(DiscreteOperator(prof, grid), 2.01)
    assert sol.lam == pytest.approx(math.pi**2, rel=0.01)


def test_lambda_s_domain_monotone_fixed_s():
    # The sharp monotonicity statement: at fixed s the multiplier cannot
    # increase when the ball grows (test functions extend by zero).
    prof = manifold.euclidean(3, r_max=10.0)
    ops = [DiscreteOperator(prof, RadialGrid(j=j, N=int(64 * j)))
           for j in (1.0, 2.0, 3.0)]
    lams = [solve_subcritical(op, 3.5).lam for op in ops]
    assert lams[0] >= lams[1] >= lams[2]


# -- continuation ------------------------------------------------------------


def test_default_schedule_shape():
    sched = default_schedule(3)
    p = critical_exponent(3)
    assert len(sched) == 16
    assert sched == sorted(sched)
    assert sched[0] == pytest.approx(2.5)
    assert sched[-1] == pytest.approx(p * (1 - 1e-3))
    with pytest.raises(DomainError):
        default_schedule(3, s_start=1.5)
    with pytest.raises(DomainError):
        default_schedule(3, count=2)


def test_flat_continuation_concentrates_near_lambda():
    # On a flat ball the critical infimum Lambda(3) is not attained:
    # the continuation must flag concentration and still estimate Y to a
    # few percent.
    from yamabe_lab.functional import lambda_constant

    prof = manifold.euclidean(3, r_max=10.0)
    result = continue_to_critical(prof, RadialGrid(j=4.0, N=512))
    assert result.concentration
    assert result.concentration_reason
    lam = lambda_constant(3)
    assert result.y_best == pytest.approx(lam, rel=0.05)
    # the witness quotient is a rigorous upper bound of the infimum
    assert result.q_p_witness >= lam * (1 - 1e-6)


def test_continuation_lambda_values_track_lambda():
    # The schedule's multipliers stay positive and the last one lands
    # within a few percent of the critical value on a flat ball.
    from yamabe_lab.functional import lambda_constant

    prof = manifold.euclidean(3, r_max=10.0)
    result = continue_to_critical(prof, RadialGrid(j=2.0, N=256))
    lams = result.lam_values
    assert len(lams) >= 3
    assert all(np.isfinite(lam) and lam > 0 for lam in lams)
    assert lams[-1] == pytest.approx(lambda_constant(3), rel=0.10)


@pytest.mark.parametrize("eps_s", [0.0, -0.1, 1e-300, 1.5])
def test_default_schedule_rejects_bad_eps_s(eps_s):
    # A negative eps_s would raise a negative gap to a fractional power,
    # a tiny one rounds p - p eps_s to p, and a large one puts the end
    # below s_start: all are domain errors that name eps_s, so every
    # schedule the continuation runs increases and stays below p.
    with pytest.raises(DomainError, match="eps_s"):
        default_schedule(3, eps_s=eps_s)


# -- per-grid invariants: one operator per continuation ----------------------


def test_continuation_builds_one_operator(monkeypatch):
    # Ball (ends on a grid-scale spike) and annulus (reaches the critical
    # polish): the eigenpair, every schedule step and the polish share
    # one DiscreteOperator.
    builds = []
    original = subcritical.DiscreteOperator.__init__

    def counting_init(self, profile, grid):
        builds.append(grid)
        original(self, profile, grid)

    monkeypatch.setattr(subcritical.DiscreteOperator, "__init__",
                        counting_init)
    prof = manifold.euclidean(3, r_max=20.0)
    ball = continue_to_critical(prof, RadialGrid(j=1.0, N=64))
    assert "spike" in ball.concentration_reason
    assert len(builds) == 1
    annulus = RadialGrid(j=3.0, N=128, r_lo=1.0)
    polished = continue_to_critical(prof, annulus)
    assert polished.y_critical is not None
    assert builds[1:] == [annulus]


def _dense_operator(profile, grid):
    """Dense A on all nodes, assembled entry by entry from the midpoint
    Dirichlet form and the trapezoid c(n) R_g mass."""
    h, N = grid.h, grid.N
    wm = midpoint_weights(grid, profile)
    mass = (node_weights(grid, profile) * conformal_coupling(profile.n)
            * profile.scalar_curvature(grid.nodes))
    A = np.diag(mass)
    for i in range(N):
        A[i, i] += wm[i] / h
        A[i + 1, i + 1] += wm[i] / h
        A[i, i + 1] -= wm[i] / h
        A[i + 1, i] -= wm[i] / h
    return A


def _old_apply(op, u):
    # The all-node product the operator used before it kept its
    # unknown block: zero-padded, then diag, upper and lower terms.
    v = np.zeros(op.grid.N + 1)
    v[op.lo:op.hi] = u
    out = op.diag * v
    out[:-1] += op.off * v[1:]
    out[1:] += op.off * v[:-1]
    return out[op.lo:op.hi]


def _old_strong_norm(op, res):
    w = op.W[op.lo:op.hi].copy()
    zero = w == 0.0
    if np.any(zero):
        w[zero] = midpoint_weights(op.grid, op.profile)[0] * op.grid.h
    return float(np.sqrt(np.sum(res**2 / w)))


@pytest.mark.parametrize("profile, grid", [
    (manifold.power_bump(3, -0.5, 0.25, 40.0), RadialGrid(j=3.0, N=96)),
    (manifold.hyperbolic(3, 10.0), RadialGrid(j=4.0, N=80, r_lo=1.5)),
])
def test_operator_apply_and_strong_norm_references(profile, grid):
    op = subcritical.DiscreteOperator(profile, grid)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(op.n_unknowns)
    A = _dense_operator(profile, grid)[op.lo:op.hi, op.lo:op.hi]
    au = op.apply(u)
    np.testing.assert_allclose(au, A @ u, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(A)))
    assert np.array_equal(au, _old_apply(op, u))
    assert op.energy(u) == float(u @ _old_apply(op, u))
    res = au - 2.5 * op.weights() * u
    # Bit-level agreement over many draws: reordering the division (say,
    # multiplying by 1/w) changes a few of them in the last place.
    for draw in rng.standard_normal((40, op.n_unknowns)):
        assert op.strong_norm(draw) == _old_strong_norm(op, draw)
    # The pole row carries zero quadrature weight and is measured through
    # the half-interval stiffness mass.
    w = op.weights()
    expected = np.where(w == 0.0, midpoint_weights(grid, profile)[0] * grid.h,
                        w)
    assert op.strong_norm(res) == pytest.approx(
        math.sqrt(float(np.sum(res**2 / expected))), rel=1e-14)
    assert (w[0] == 0.0) == grid.is_ball


def test_continuation_golden_values():
    # Captured before the operator was hoisted out of the schedule; the
    # solver loop must reproduce every bit.
    result = continue_to_critical(manifold.euclidean(3, 2.0),
                                  RadialGrid(j=1.0, N=64))
    assert result.lam_values == [
        10.947978343668883, 10.54147480426828, 9.229593201046807,
        8.16493292382319, 7.390953888061803, 6.8380019857597985,
        6.426567159487712, 6.13487576793015]
    assert result.y_extrapolated == 5.616083270997345
    assert result.concentration_reason == (
        "minimizer narrowed to a grid-scale spike at s = 5.820813")


def test_annulus_continuation_golden_values():
    # Captured before the solver took its operator as the first argument:
    # an annulus whose continuation reaches the critical polish.
    result = continue_to_critical(manifold.euclidean(3, 20.0),
                                  RadialGrid(j=3.0, N=128, r_lo=1.0))
    assert result.lam_values == [
        5.724828008101042, 16.29300019294253, 23.27373321634676,
        27.476144674015565, 30.036839657892802, 31.62934106403799,
        32.63593170957828, 33.27948804712857, 33.694131341252245,
        33.96266240259235, 34.13715943628965, 34.2508045499554,
        34.32492695909199, 34.373318021546076, 34.4049301547227,
        34.425589719262206]
    assert result.y_critical == 34.46461234883754
    assert result.critical_residual == 3.1495707233427447e-12
    assert not result.concentration


def test_solver_accepts_critical_exponent():
    # 2 < s <= p: the critical polish solves at s = p itself.
    prof = manifold.euclidean(3, r_max=20.0)
    op = DiscreteOperator(prof, RadialGrid(j=3.0, N=128, r_lo=1.0))
    p = critical_exponent(3)
    sol = solve_subcritical(op, p)
    assert sol.s == p
    assert sol.residual <= 1e-10
    with pytest.raises(DomainError):
        solve_subcritical(op, p + 1e-9)


# -- tridiagonal solve -------------------------------------------------------


@pytest.mark.parametrize("profile, grid", [
    (manifold.euclidean(3, 10.0), RadialGrid(j=1.0, N=64)),
    (manifold.power_bump(3, -0.5, 0.25, 40.0), RadialGrid(j=3.0, N=384)),
    (manifold.hyperbolic(3, 10.0), RadialGrid(j=4.0, N=80, r_lo=1.5)),
    (manifold.cigar(4, 50.0), RadialGrid(j=8.0, N=1100)),
])
def test_solve_banded_matches_scipy_bitwise(profile, grid):
    # The direct dgtsv call is the routine scipy.linalg.solve_banded
    # runs for (1, 1) bands: same bits, on the shifted operators of the
    # Newton step and of the inverse iteration, for one and two columns.
    op = DiscreteOperator(profile, grid)
    rng = np.random.default_rng(grid.N)
    w = op.weights()
    for shift in (-3.7 * w * rng.uniform(0.5, 2.0, op.n_unknowns), 2.0 * w):
        ab = op.banded(shift_diag=shift)
        before = ab.copy()
        for rhs in (rng.standard_normal(op.n_unknowns),
                    rng.standard_normal((op.n_unknowns, 2)),
                    np.column_stack([w, -w * rng.uniform(size=w.size)])):
            x = subcritical.solve_banded((1, 1), ab, rhs)
            expected = scipy_solve_banded((1, 1), ab, rhs)
            assert x.shape == expected.shape
            assert np.array_equal(x, expected)
        assert np.array_equal(ab, before)


def test_solve_banded_keeps_scipy_errors():
    # [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: elimination meets an exact zero
    # pivot.
    singular = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    for solve in (subcritical.solve_banded, scipy_solve_banded):
        with pytest.raises(LinAlgError):
            solve((1, 1), singular, np.ones(3))
    ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
    for bad in (np.nan, np.inf, -np.inf):
        broken = ab.copy()
        broken[1, 1] = bad
        with pytest.raises(ValueError):
            subcritical.solve_banded((1, 1), broken, np.ones(3))
        rhs = np.ones((3, 2))
        rhs[2, 1] = bad
        with pytest.raises(ValueError):
            subcritical.solve_banded((1, 1), ab, rhs)


# -- stall exit of the relocation retry --------------------------------------


def _logged_continuation(monkeypatch, profile, grid):
    """Run the continuation with every strong_norm value logged; each
    projected-gradient relocation logs None first."""
    log = []
    norm = subcritical.DiscreteOperator.strong_norm
    relocate = subcritical._projected_gradient

    def logged_norm(self, residual):
        value = norm(self, residual)
        log.append(value)
        return value

    def logged_relocate(*args):
        log.append(None)
        return relocate(*args)

    monkeypatch.setattr(subcritical.DiscreteOperator, "strong_norm",
                        logged_norm)
    monkeypatch.setattr(subcritical, "_projected_gradient", logged_relocate)
    return continue_to_critical(profile, grid), log


def _retry_searches(log, tol=1e-10):
    """Replay the line searches of the last relocation retry from its
    logged residual norms: the trials each search took, or None for a
    search that ran out of halvings."""
    norms = log[len(log) - log[::-1].index(None):]
    res_norm, k, searches = norms[0], 1, []
    trials_per_search = subcritical._MAX_HALVINGS + 1
    while k < len(norms) and res_norm > tol:
        trials = norms[k:k + trials_per_search]
        better = [t < res_norm for t in trials]
        taken = better.index(True) + 1 if True in better else len(trials)
        searches.append(taken if True in better else None)
        res_norm, k = trials[taken - 1], k + taken
    assert k == len(norms), "log does not parse as one Newton run"
    return searches


def _longest_exhausted_run(searches):
    longest = run = 0
    for taken in searches:
        run = run + 1 if taken is None else 0
        longest = max(longest, run)
    return longest


def test_retry_recovering_after_exhausted_searches_golden(monkeypatch):
    # A flat3 ball of the benchmark (seed 4, j = 4.252647, 128 nodes per
    # unit): its relocation retry at s = 5.949867 runs out of halvings up
    # to three times in a row and still converges, so the stall exit
    # leaves it alone.  Y was captured before the exit existed.
    result, log = _logged_continuation(
        monkeypatch, manifold.euclidean(3, 1e8), RadialGrid(j=4.252647, N=544))
    assert result.y_best == 5.52621181246316
    assert result.concentration_reason == (
        "minimizer narrowed to a grid-scale spike at s = 5.949867")
    searches = _retry_searches(log)
    assert 1 <= _longest_exhausted_run(searches) < subcritical._STALL_ITERS
    assert searches[-1] is not None


def test_failing_retry_stops_at_stall_limit(monkeypatch):
    # bump3 on a coarse ball fails at s = 5.923349: the retry stops after
    # _STALL_ITERS exhausted line searches in a row, after 16 of the 60
    # iterations it used to run out.
    result, log = _logged_continuation(
        monkeypatch, manifold.power_bump(3, -0.5, 0.25, 1e8),
        RadialGrid(j=2.0, N=64))
    stall = subcritical._STALL_ITERS
    assert result.concentration_reason.startswith(
        f"solver failure at s = 5.923349: Newton stalled: {stall} line "
        "searches in a row ran out of halvings (residual ")
    searches = _retry_searches(log)
    assert searches[-stall:] == [None] * stall
    assert _longest_exhausted_run(searches[:-1]) < stall
    assert len(searches) == 16
    # Residual norms the retry evaluated: 1,196 when it ran out its 60
    # iterations.
    assert log[::-1].index(None) == 275
