"""Exhaustion pipeline: traces, extension by zero, exponents, verdicts."""

import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe_lab import exhaustion, manifold, subcritical
from yamabe_lab.cli import _run_trace, main
from yamabe_lab.config import load_config, profile_from_config
from yamabe_lab.constants import critical_exponent
from yamabe_lab.errors import (DomainError, InfeasibleExponentError,
                               MonotonicityError)
from yamabe_lab.exhaustion import (ExhaustionTrace, beta0_select,
                                   boundary_bound, concentration_verdict,
                                   decay_fit, exponent_formulas,
                                   fit_tail_exponent, load_trace,
                                   run_exhaustion, save_trace,
                                   subsolution_check)
from yamabe_lab.functional import lambda_constant
from yamabe_lab.radial import RadialField, RadialGrid, lp_norm, yamabe_energy
from yamabe_lab.subcritical import ContinuationResult, continue_to_critical


# -- run_exhaustion ----------------------------------------------------------


def test_flat_trace_shape(flat_trace):
    assert flat_trace.radii == (2.0, 4.0, 8.0)
    assert len(flat_trace.records) == 3
    assert flat_trace.largest.j == 8.0
    lam = lambda_constant(3)
    for rec in flat_trace.records:
        assert rec.y == pytest.approx(lam, rel=0.05)
    with pytest.raises(DomainError):
        flat_trace.record_for(16.0)


def test_exhaustion_input_validation(flat_profile):
    with pytest.raises(DomainError):
        run_exhaustion(flat_profile, (2.0, 4.0))          # too few
    with pytest.raises(DomainError):
        run_exhaustion(flat_profile, (4.0, 2.0, 8.0))     # not increasing
    small = manifold.euclidean(3, r_max=6.0)
    with pytest.raises(DomainError):
        run_exhaustion(small, (2.0, 4.0, 8.0))            # exceeds r_max


def test_monotonicity_tripwire(flat_profile, monkeypatch):
    # A zero tolerance must trip on the ~1% method noise of a constant
    # sequence; the shipped 2% must not (covered by the flat fixture).
    monkeypatch.setattr(exhaustion, "_TOL_MONO_REL", 0.0)
    with pytest.raises(MonotonicityError):
        run_exhaustion(flat_profile, (2.0, 4.0, 8.0), nodes_per_unit=64)


# -- the largest ball in a forked child --------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the machine, and a count of the forks."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(exhaustion, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bits(rec: ContinuationResult) -> tuple:
    return (repr(rec.j), repr(rec.y), tuple(map(repr, rec.schedule)),
            tuple(map(repr, rec.lam_values)), rec.concentration_reason,
            repr(rec.critical_residual), rec.field.values.tobytes())


@needs_fork
@pytest.mark.parametrize("config", ["flat3", "bump3"])
def test_forked_exhaustion_matches_serial_balls(config, configs_dir, forks):
    # The child runs the same code on the same bits, and pickle carries
    # floats and arrays exactly.  bump3 B_8's polish fails, so its
    # ConvergenceError text crosses the pipe in concentration_reason.
    cfg = load_config(configs_dir / f"{config}.json")
    profile = profile_from_config(cfg)
    assert cfg.pipeline.radii == (2.0, 4.0, 8.0)
    assert cfg.grid.nodes_per_unit == 128
    trace = _run_trace(profile, cfg)
    assert len(forks) == 1
    sol = cfg.solver
    for rec in trace.records:
        alone = continue_to_critical(
            profile, RadialGrid(j=rec.j, N=int(128 * rec.j)),
            s_start=sol.s_start, count=sol.count, eps_s=sol.eps_s,
            tol=sol.tol, max_iters=sol.max_iters)
        assert _bits(rec) == _bits(alone), rec.j
    if config == "bump3":
        assert trace.largest.concentration_reason.startswith(
            "critical polish failed: Newton stalled")
    _assert_no_child_left()


def _open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


@needs_fork
@pytest.mark.parametrize("refuse", ["one_cpu", "no_fork", "fork_fails"])
def test_exhaustion_without_fork_matches_forked(refuse, flat_profile, forks,
                                                monkeypatch):
    # fork_fails: fork raises as it does when process ids or memory run
    # out; the balls are solved here and the pipe is closed.
    forked = run_exhaustion(flat_profile, (2.0, 4.0, 8.0))
    assert len(forks) == 1

    def fork():
        raise AssertionError("os.fork called")

    def fork_fails():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    if refuse == "one_cpu":
        monkeypatch.setattr(exhaustion, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", fork)
    elif refuse == "no_fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork_fails)
    fds = _open_fds() if os.path.isdir("/proc/self/fd") else None
    serial = run_exhaustion(flat_profile, (2.0, 4.0, 8.0))
    assert serial.f_radii == forked.f_radii
    assert list(map(_bits, serial.records)) == \
        list(map(_bits, forked.records))
    assert len(forks) == (2 if refuse == "fork_fails" else 1)
    if fds is not None:
        assert _open_fds() == fds
    _assert_no_child_left()


class _TwoArgError(Exception):
    # Pickles, but unpickling calls __init__ with the message alone.
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _patch_balls(monkeypatch, actions):
    """continue_to_critical first runs ``actions[j]()`` on the ball of
    radius j; fork carries the patch into the child."""
    def patched(profile, grid, **options):
        if grid.j in actions:
            actions[grid.j]()
        return continue_to_critical(profile, grid, **options)

    monkeypatch.setattr(subcritical, "continue_to_critical", patched)


def _raise(exc):
    def action():
        raise exc
    return action


@needs_fork
@pytest.mark.parametrize("exc, expected_type, expected", [
    (DomainError("child ball refused"), DomainError, "child ball refused"),
    (MonotonicityError("Y_j went up"), MonotonicityError, "Y_j went up"),
    (_TwoArgError("odd", "j = 4"), ChildProcessError,
     "ball j = 4.0 raised _TwoArgError: odd at j = 4"),
], ids=["domain", "monotonicity", "does_not_unpickle"])
def test_child_exception_reaches_the_caller(exc, expected_type, expected,
                                            flat_profile, forks, monkeypatch):
    _patch_balls(monkeypatch, {4.0: _raise(exc)})
    with pytest.raises(expected_type) as info:
        run_exhaustion(flat_profile, (1.0, 2.0, 4.0), nodes_per_unit=32)
    assert type(info.value) is expected_type
    assert str(info.value) == expected
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("exc", [DomainError("parent ball refused"),
                                 KeyboardInterrupt()],
                         ids=["domain", "interrupt"])
def test_parent_ball_failure_reaps_the_child(exc, flat_profile, forks,
                                             monkeypatch):
    # The child's ball would take a minute: the parent kills it.
    _patch_balls(monkeypatch, {2.0: _raise(exc),
                               4.0: lambda: time.sleep(60.0)})
    start = time.monotonic()
    with pytest.raises(type(exc)):
        run_exhaustion(flat_profile, (1.0, 2.0, 4.0), nodes_per_unit=32)
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
def test_child_death_is_a_stage_error(forks, monkeypatch, tmp_path, capsys):
    _patch_balls(monkeypatch, {4.0: lambda: os._exit(3)})
    flat = manifold.euclidean(3, r_max=1e8)
    with pytest.raises(ChildProcessError,
                       match="ball j = 4.0 exited with code 3 and no result"):
        run_exhaustion(flat, (1.0, 2.0, 4.0), nodes_per_unit=32)
    _assert_no_child_left()
    config = tmp_path / "small.json"
    config.write_text(json.dumps({
        "profile": {"name": "euclidean", "n": 3, "r_max": 1e8},
        "grid": {"nodes_per_unit": 32},
        "pipeline": {"radii": [1.0, 2.0, 4.0], "compact_radius": 0.5}}))
    code = main(["exhaust", "--config", str(config),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error [exhaust]: ChildProcessError: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out" / "trace.json").exists()
    assert len(forks) == 2
    _assert_no_child_left()


@needs_fork
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="PR_SET_PDEATHSIG is Linux's")
def test_child_dies_with_a_caller_killed_by_a_signal(tmp_path):
    # SIGKILL runs no finally block in the caller; the kernel kills the
    # child, which would otherwise solve its ball (here: sleep) to the end.
    pid_file = tmp_path / "child.pid"
    script = f"""
import os, time
from yamabe_lab import exhaustion, manifold, subcritical

def patched(profile, grid, **options):
    if grid.j == 4.0:
        with open({str(pid_file)!r} + ".part", "w") as out:
            out.write(str(os.getpid()))
        os.rename({str(pid_file)!r} + ".part", {str(pid_file)!r})
    time.sleep(120.0)

exhaustion._usable_cpus = lambda: 2
subcritical.continue_to_critical = patched
exhaustion.run_exhaustion(manifold.euclidean(3, r_max=1e8), (1.0, 2.0, 4.0),
                          nodes_per_unit=32)
"""
    src = str(Path(exhaustion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    caller = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 60.0
        while not pid_file.exists():
            assert caller.poll() is None, "the caller ended early"
            assert time.monotonic() < deadline, "no child started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
    finally:
        caller.kill()
        caller.wait()
    deadline = time.monotonic() + 10.0
    try:
        while _running(child):
            assert time.monotonic() < deadline, \
                "the child outlived its caller"
            time.sleep(0.05)
    finally:
        if _running(child):
            os.kill(child, signal.SIGKILL)


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# -- subsolution check -------------------------------------------------------


def test_subsolution_extension_passes(flat_profile, flat_trace):
    rep = subsolution_check(flat_trace, 4.0, flat_profile)
    assert rep.passed
    assert rep.max_violation <= rep.tol
    # A passing check names no radius: its largest violation is rounding.
    assert rep.worst_radius is None


def _doctored(trace, j):
    """The trace with ball j's solved multiplier halved."""
    rec = trace.record_for(j)
    fake = dataclasses.replace(
        rec, lam_values=rec.lam_values[:-1] + (rec.lam_values[-1] * 0.5,))
    records = tuple(fake if r.j == j else r for r in trace.records)
    return dataclasses.replace(trace, records=records)


def test_subsolution_detects_fake_multiplier(flat_profile, flat_trace):
    # Lowering the solved multiplier makes u_j fail the weak inequality:
    # the check must notice a corrupted record, and say where.
    rep = subsolution_check(_doctored(flat_trace, 4.0), 4.0, flat_profile)
    assert not rep.passed
    h = flat_trace.record_for(4.0).field.grid.h
    assert 0.0 <= rep.worst_radius <= 4.0 + h


def _doubled_grid_report(trace, j, profile):
    """The check as made on the doubled grid [0, 2j]: u_j padded with
    zeros to 2N cells, and the weak residual of that grid's operator at
    every node but the outer one."""
    rec = trace.record_for(j)
    if rec.y_critical is not None:
        s, lam = critical_exponent(profile.n), rec.y_critical
    else:
        s = rec.schedule[-1]
        lam = rec.lam_values[-1] * lp_norm(rec.field, s, profile) ** (2.0 - s)
    big = RadialGrid(j=2.0 * j, N=int(round(2.0 * j / rec.field.grid.h)))
    values = np.zeros(big.N + 1)
    values[:rec.field.grid.N + 1] = rec.field.values
    op = subcritical.DiscreteOperator(profile, big)
    u = values[:-1]
    _, weak = op.residual(u, s, lam)
    scale = max(1.0, float(np.max(abs(lam) * op.weights()
                                  * np.abs(u) ** (s - 1.0))))
    tol = exhaustion._SUBSOLUTION_TOL_REL * scale
    k = int(np.argmax(weak))
    passed = bool(weak[k] <= tol)
    return exhaustion.SubsolutionReport(
        max_violation=float(weak[k]), tol=tol, passed=passed,
        worst_radius=None if passed else float(big.nodes[k]),
        s_checked=float(s), lam_checked=float(lam))


@pytest.fixture(scope="module")
def largest_shipped_balls(configs_dir):
    """(profile, one-ball trace) of each shipped config's largest ball."""
    balls = {}
    for name in ("flat3", "bump3", "cigar3", "hyperbolic3"):
        cfg = load_config(configs_dir / f"{name}.json")
        profile = profile_from_config(cfg)
        j, sol = cfg.pipeline.radii[-1], cfg.solver
        rec = exhaustion.solve_ball(
            profile, j, cfg.grid.nodes_per_unit, s_start=sol.s_start,
            count=sol.count, eps_s=sol.eps_s, tol=sol.tol,
            max_iters=sol.max_iters)
        balls[name] = (profile, ExhaustionTrace(
            profile_name=profile.name, n=profile.n, r_max=profile.r_max,
            f_radii=exhaustion.f_at_radii(profile, [j]), records=(rec,)))
    return balls


@pytest.mark.parametrize("case", ["flat3", "bump3", "cigar3", "hyperbolic3",
                                  "doctored"])
def test_subsolution_matches_doubled_grid(case, largest_shipped_balls,
                                          flat_profile, flat_trace):
    # Every hat past j + h meets only zeros, so the ball's own grid gives
    # the doubled grid's report bit for bit (repr keeps signed zeros).
    if case == "doctored":
        profile, trace, j = flat_profile, _doctored(flat_trace, 4.0), 4.0
    else:
        profile, trace = largest_shipped_balls[case]
        j = trace.largest.j
    rep = subsolution_check(trace, j, profile)
    assert repr(rep) == repr(_doubled_grid_report(trace, j, profile))
    assert rep.passed == (case != "doctored")


def test_subsolution_checks_balls_up_to_r_max(tmp_path, capsys):
    # The extension by zero needs no room past the ball: on hyperbolic
    # space cut at r_max = 12 the ball of radius 8 is checked, in process
    # and in exhaust's report.
    profile = manifold.hyperbolic(3, r_max=12.0)
    config = tmp_path / "hyperbolic12.json"
    config.write_text(json.dumps({
        "profile": {"name": "hyperbolic", "n": 3, "r_max": 12.0},
        "pipeline": {"radii": [2.0, 4.0, 8.0], "compact_radius": 1.0}}))
    assert main(["exhaust", "--config", str(config), "--out",
                 str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]["subsolution"]
    rep = subsolution_check(load_trace(tmp_path), 8.0, profile)
    assert rep.passed and rep.max_violation <= rep.tol
    assert report == dataclasses.asdict(rep)


def test_radius_checks_take_the_profile_slack():
    # lp_norm and DiscreteOperator accept radii up to r_max (1 + 1e-12)
    # through MetricProfile.check_radius; the exhaustion takes the same
    # rule and message, and the subsolution check of its largest ball
    # needs no radius past it.
    prof = manifold.euclidean(3, 2.0)
    inside = 1.0 + 1e-13
    trace = run_exhaustion(prof, (0.5, inside, 2.0 * inside),
                           nodes_per_unit=32)
    assert trace.radii[-1] == 2.0 * inside
    assert subsolution_check(trace, trace.largest.j, prof).passed
    refused = r"radius outside \[0, 2.0\] for profile 'euclidean'"
    with pytest.raises(DomainError, match=refused):
        run_exhaustion(prof, (0.5, 1.0, 2.0 * (1.0 + 1e-11)),
                       nodes_per_unit=32)


# -- exponent formulas -------------------------------------------------------


def test_beta0_select_values():
    # [DERIVED] sqrt(1/c0y) capped at n/(n-2).
    assert beta0_select(3, 0.25) == pytest.approx(2.0, rel=1e-9)
    assert beta0_select(3, 0.04) == pytest.approx(3.0, rel=1e-8)  # capped
    assert beta0_select(4, -1.0) == pytest.approx(2.0, rel=1e-8)  # Y <= 0


def test_beta0_select_guards():
    with pytest.raises(InfeasibleExponentError) as err:
        beta0_select(3, 1.0)
    assert "margin exhausted" in str(err.value)
    with pytest.raises(DomainError):
        beta0_select(2, 0.5)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(3, 8), c0y=st.floats(1e-6, 0.95))
def test_beta0_always_admissible(n, c0y):
    beta0 = beta0_select(n, c0y)
    assert 1.0 < beta0 < n / (n - 2)
    # beta0^2 c0y < 1 defines the admissible set; beta0 is its supremum
    # sqrt(1/c0y) (up to rounding) or the cap below it
    assert beta0**2 * c0y <= 1.0 + 1e-12


_FIXTURES = [
    # (n, Y, Y_inf, rho) -> (beta0, rho0, delta, alpha) [DERIVED] from the
    # closed forms evaluated by hand:
    #   Y > 0: beta0 = min(sqrt(Y_inf/Y), n/(n-2)^-),
    #          rho0 = min(n sqrt(Y_inf/Y) - n, 2n/(n-2)),
    #          alpha = (n-2)/2 - (n-2) rho / (2 n (beta0 - 1))
    #   Y <= 0: beta0 = n/(n-2)^-, rho0 = 2n/(n-2),
    #          alpha = (n-2)(2n - rho(n-2)) / (4n)
    #   delta = (n-2) beta0 / (n beta0 - 2)
    ((3, 1.0, 4.0, 0.0), (2.0, 3.0, 0.5, 0.5)),
    ((4, 2.0, 8.0, 1.0), (2.0, 4.0, 2.0 / 3.0, 0.75)),
    ((3, -2.0, 5.0, 0.0), (3.0, 6.0, 3.0 / 7.0, 0.5)),
    ((5, 1.0, 2.0, 1.0),
     (math.sqrt(2.0), 5.0 * math.sqrt(2.0) - 5.0,
      3.0 * math.sqrt(2.0) / (5.0 * math.sqrt(2.0) - 2.0),
      1.5 - 3.0 / (10.0 * (math.sqrt(2.0) - 1.0)))),
    ((4, 0.0, 3.0, -2.0), (2.0, 4.0, 2.0 / 3.0, 1.5)),
]


@pytest.mark.parametrize("args,expected", _FIXTURES)
def test_exponent_fixtures(args, expected):
    # rel 1e-6 absorbs the strict-inequality guard on the beta0 cap.
    rep = exponent_formulas(*args)
    beta0, rho0, delta, alpha = expected
    assert rep.beta0 == pytest.approx(beta0, rel=1e-6)
    assert rep.rho0 == pytest.approx(rho0, rel=1e-6)
    assert rep.delta == pytest.approx(delta, rel=1e-6)
    assert rep.alpha_predicted == pytest.approx(alpha, rel=1e-6)


def test_exponent_hypothesis_errors_are_named():
    with pytest.raises(InfeasibleExponentError, match="Y_inf > 0"):
        exponent_formulas(3, -1.0, -0.5, 0.0)
    with pytest.raises(InfeasibleExponentError, match="Y < Y_inf"):
        exponent_formulas(3, 4.0, 4.0, 0.0)
    with pytest.raises(InfeasibleExponentError, match="rho < rho_0"):
        exponent_formulas(3, 1.0, 4.0, 3.5)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(3, 6), y=st.floats(-5.0, 5.0),
       ratio=st.floats(1.01, 50.0), rho_frac=st.floats(0.0, 0.99))
def test_exponent_invariants(n, y, ratio, rho_frac):
    # Whenever the hypotheses hold the report is internally consistent:
    # beta0 and delta in range, rho < rho0, alpha below (n-2)/2 + the
    # negative-growth correction.
    y_inf = abs(y) * ratio + 0.1
    if y >= y_inf:
        return
    rho0_probe = exponent_formulas(n, y, y_inf, 0.0).rho0
    rho = rho_frac * rho0_probe
    rep = exponent_formulas(n, y, y_inf, rho)
    assert 1.0 < rep.beta0 < n / (n - 2)
    assert 0.0 < rep.delta < 1.0
    assert rep.rho < rep.rho0
    if rho >= 0.0:
        assert rep.alpha_predicted <= (n - 2) / 2.0 + 1e-12


# -- decay fits --------------------------------------------------------------


def _record(vals, j, concentration=False):
    """A record of the dirichlet field ``vals`` on B_j, with Y = 1."""
    field = RadialField(RadialGrid(j=j, N=len(vals) - 1), vals,
                        boundary="dirichlet")
    return ContinuationResult(
        j=j, schedule=(), lam_values=(), q_p_witness=1.0, y_critical=None,
        field=field, concentration=concentration,
        concentration_reason="synthetic" if concentration else "",
        critical_residual=None)


def _trace_of(recs, n=3):
    """A trace of the given records, made as on flat space (f = r)."""
    return ExhaustionTrace(profile_name="synthetic", n=n, r_max=1e8,
                           f_radii=tuple(rec.j for rec in recs),
                           records=tuple(recs))


def _synthetic_trace(alpha=0.5, j=8.0, n=3):
    nodes = RadialGrid(j=j, N=512).nodes
    vals = (1.0 + nodes) ** -alpha * (1.0 - nodes / j)
    vals[-1] = 0.0
    return _trace_of([_record(vals, j)], n=n)


def test_fit_tail_exponent_exact_power_law():
    grid = RadialGrid(j=8.0, N=512)
    field = RadialField(grid, grid.nodes.clip(1e-9) ** -0.5, boundary="free")
    alpha, rms, count = fit_tail_exponent(field, 2.0, 7.0)
    assert alpha == pytest.approx(0.5, abs=1e-10)
    assert rms < 1e-10
    assert count >= 10


def test_fit_tail_exponent_window_guard():
    grid = RadialGrid(j=8.0, N=512)
    field = RadialField(grid, np.full(513, -1.0), boundary="free")
    with pytest.raises(DomainError):
        fit_tail_exponent(field, 2.0, 7.0)  # no positive nodes


def test_decay_fit_on_synthetic_trace():
    fit = decay_fit(_synthetic_trace(alpha=0.5), window_frac=0.25,
                    alpha_predicted=0.4)
    # The cutoff factor 1 - r/j steepens the measured decay on the window
    # [2, 7.6] (alpha = 0.5 fits as 2.0, alpha = 0.1 as 1.7); the
    # one-sided comparison passes faster decay and fails slower decay.
    assert fit.window == (2.0, 7.6)
    assert fit.alpha_fitted >= 0.5
    assert fit.passed
    strict = decay_fit(_synthetic_trace(alpha=0.1), window_frac=0.25,
                       alpha_predicted=2.0)
    assert not strict.passed


def test_decay_fit_window_validation():
    # window_frac must leave a window below the fixed upper end 0.95 j
    for window_frac in (0.0, 0.95, 1.2):
        with pytest.raises(DomainError):
            decay_fit(_synthetic_trace(), window_frac=window_frac)


# -- boundary bound ----------------------------------------------------------


def _trace_with_boundary(values):
    # Each field is bmax at its last interior node and zero elsewhere
    # (the boundary layer r > j - 1/8 holds that node: h <= 5/64).
    recs = []
    for k, bmax in enumerate(values):
        vals = np.zeros(65)
        vals[-2] = bmax
        recs.append(_record(vals, float(k + 2)))
    return _trace_of(recs)


def test_boundary_bound_floor_pass():
    rep = boundary_bound(_trace_with_boundary([1e-3, 1e-4, 1e-6, 1e-9]))
    assert rep.passed and rep.ratio == 1.0


def test_boundary_bound_ratio_fail():
    rep = boundary_bound(_trace_with_boundary([0.5, 0.5, 0.2, 0.9]))
    assert not rep.passed
    assert rep.ratio == pytest.approx(4.5)


def test_boundary_bound_stable_pass():
    rep = boundary_bound(_trace_with_boundary([0.5, 0.4, 0.35, 0.4]))
    assert rep.passed


# -- verdicts ----------------------------------------------------------------


def _verdict_trace(sups, concentration=False, max_radius=0.0):
    # Each field peaks at its value sup at r = 0, the last one at the
    # node r = max_radius; only the last record carries the flag.
    recs = []
    for k, sup in enumerate(sups):
        j = float(2 ** (k + 1))
        last = k == len(sups) - 1
        peak = max_radius if last else 0.0
        vals = sup * np.exp(-np.abs(RadialGrid(j=j, N=64).nodes - peak))
        vals[-1] = 0.0
        recs.append(_record(vals, j, concentration=concentration and last))
    return _trace_of(recs)


def test_verdict_converges_positive():
    v = concentration_verdict(_verdict_trace([1.0, 1.05, 0.98]), R=1.0)
    assert v.kind == "converges-positive"


def test_verdict_escapes_by_trend():
    v = concentration_verdict(_verdict_trace([1.0, 0.2, 0.01]), R=1.0)
    assert v.kind == "escapes"


def test_verdict_concentrates_by_trend():
    v = concentration_verdict(_verdict_trace([1.0, 10.0, 100.0]), R=1.0)
    assert v.kind == "concentrates"


def test_verdict_inconclusive():
    v = concentration_verdict(_verdict_trace([1.0, 20.0, 0.01]), R=1.0)
    assert v.kind == "inconclusive"


def test_verdict_concentration_flag_inside():
    v = concentration_verdict(_verdict_trace([1.0, 1.0, 1.0],
                                             concentration=True,
                                             max_radius=0.5), R=1.0)
    assert v.kind == "concentrates"


def test_verdict_concentration_flag_outside_escapes():
    v = concentration_verdict(_verdict_trace([1.0, 1.0, 1.0],
                                             concentration=True,
                                             max_radius=7.5), R=1.0)
    assert v.kind == "escapes"


def test_verdict_validation():
    with pytest.raises(DomainError):
        concentration_verdict(_verdict_trace([1.0, 1.0, 1.0]), R=3.0)


def test_flat_verdict_concentrates(flat_trace):
    v = concentration_verdict(flat_trace, R=1.0)
    assert v.kind == "concentrates"


# -- serialization and normalization -----------------------------------------


def _assert_same_fields(a, b, skip):
    for f in dataclasses.fields(a):
        if f.name != skip:
            # exact, and of the same type: floats survive the JSON repr
            # round trip, and lists come back as tuples
            left, right = getattr(a, f.name), getattr(b, f.name)
            assert left == right and type(left) is type(right), f.name


def test_trace_roundtrip(tmp_path, flat_trace):
    # No shipped ball reaches the critical polish, so a synthetic record
    # carries a float y_critical and critical_residual.
    nodes = RadialGrid(j=16.0, N=64).nodes
    polished = dataclasses.replace(
        _record((1.0 - nodes / 16.0) ** 2, 16.0), schedule=(2.5, 5.9),
        lam_values=(1.5, 2.5), q_p_witness=5.5, y_critical=5.4781,
        critical_residual=3.2e-11)
    trace = dataclasses.replace(
        flat_trace, f_radii=flat_trace.f_radii + (16.0,),
        records=flat_trace.records + (polished,))
    back = load_trace(save_trace(trace, tmp_path))
    _assert_same_fields(back, trace, skip="records")
    assert len(back.records) == len(trace.records)
    for a, b in zip(back.records, trace.records):
        _assert_same_fields(a, b, skip="field")
        assert np.array_equal(a.field.grid.nodes, b.field.grid.nodes)
        assert np.array_equal(a.field.values, b.field.values)
        assert a.field.boundary == b.field.boundary
    # loading by directory works too
    assert load_trace(tmp_path).radii == trace.radii


@pytest.mark.parametrize("config", ["flat3", "bump3", "cigar3",
                                    "hyperbolic3", "euclidean4"])
def test_reported_y_is_quotient_of_stored_field(config, configs_dir,
                                                tmp_path):
    # Every Y_j is the discrete Yamabe quotient of the field its trace
    # stores, so it can be recomputed from field_j*.csv alone.  The n = 3
    # balls report the witness of the last solved field, the n = 4 balls
    # the attained critical multiplier.
    if config == "euclidean4":
        profile, polished = manifold.euclidean(4, r_max=1e8), True
    else:
        profile = profile_from_config(load_config(configs_dir
                                                  / f"{config}.json"))
        polished = False
    trace = load_trace(save_trace(
        run_exhaustion(profile, (2.0, 4.0, 8.0)), tmp_path))
    p = critical_exponent(profile.n)
    for rec in trace.records:
        assert (rec.y_critical is not None) == polished
        quotient = yamabe_energy(rec.field, profile) \
            / lp_norm(rec.field, p, profile) ** 2
        assert rec.y == pytest.approx(quotient, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("config", ["flat3", "bump3", "cigar3",
                                    "hyperbolic3"])
def test_derived_values_of_reloaded_trace(config, configs_dir, tmp_path,
                                          capsys):
    # The boundary maxima, the peak radius, Y_j and the radii are derived
    # from the stored records, so the trace that exhaust writes gives the
    # same checks as the one it computed.
    path = configs_dir / f"{config}.json"
    assert main(["exhaust", "--config", str(path), "--out",
                 str(tmp_path)]) == 0
    capsys.readouterr()
    cfg = load_config(path)
    profile = profile_from_config(cfg)
    computed = _run_trace(profile, cfg)
    loaded = load_trace(tmp_path)
    assert loaded.radii == computed.radii == cfg.pipeline.radii
    assert loaded.tol_mono == computed.tol_mono
    R = cfg.pipeline.compact_radius
    for check, args in ((boundary_bound, ()),
                        (concentration_verdict, (R,)),
                        (subsolution_check, (computed.largest.j, profile)),
                        (decay_fit, (cfg.pipeline.window_frac,))):
        assert check(loaded, *args) == check(computed, *args), \
            check.__name__


def test_load_trace_refuses_trace_without_profile_record(tmp_path,
                                                        flat_trace):
    # A trace from before r_max and f_radii were stored is refused, not
    # filled in: it cannot say which profile params made it.
    assert flat_trace.r_max == 1e8
    assert flat_trace.f_radii == flat_trace.radii  # f = r on flat space
    path = save_trace(flat_trace, tmp_path)
    manifest = json.loads(path.read_text())
    del manifest["r_max"], manifest["f_radii"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(DomainError, match="fields of a trace"):
        load_trace(path)


def test_load_trace_rejects_foreign_fields(tmp_path, flat_trace):
    path = save_trace(flat_trace, tmp_path)
    manifest = json.loads(path.read_text())
    manifest["records"][0]["estimator"] = "critical"
    path.write_text(json.dumps(manifest))
    with pytest.raises(DomainError, match="fields of a trace"):
        load_trace(path)


def k_normalize(field: RadialField, y: float, n: int):
    """Dilation u -> |Y|^{1/(p-2)} u making the coefficient K = sign(Y).

    Returns (field, K).  For Y = 0 the field is returned unchanged.
    """
    p = critical_exponent(n)
    if y == 0.0:
        return field, 0
    scale = abs(y) ** (1.0 / (p - 2.0))
    return dataclasses.replace(field, values=field.values * scale), \
        (1 if y > 0 else -1)


def test_k_normalize_scaling():
    grid = RadialGrid(j=1.0, N=64)
    vals = np.linspace(1.0, 0.0, 65)
    field = RadialField(grid, vals, boundary="free")
    scaled, K = k_normalize(field, 16.0, 3)
    assert K == 1
    # |Y|^{1/(p-2)} with p = 6: 16^{1/4} = 2
    assert np.allclose(scaled.values, 2.0 * vals)
    same, K0 = k_normalize(field, 0.0, 3)
    assert K0 == 0 and same is field
    neg, Km = k_normalize(field, -16.0, 3)
    assert Km == -1 and np.allclose(neg.values, 2.0 * vals)
