"""The three workloads: set-up, one operation, and the checks on its output.

Each workload generates its inputs from the seed (``inputs``), warms up,
and then exposes ``call(k)`` -- the program calls of operation ``k``,
which the runner times -- and ``check(k, raw)``, which judges the output
against the exact answers in ``checks`` outside the timed region.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

CLI_TIMEOUT_S = 60.0
VERDICT_KINDS = ("converges-positive", "concentrates", "escapes",
                 "inconclusive")


@dataclass
class Outcome:
    """What the checks made of one operation."""

    problems: list = field(default_factory=list)
    errs: list = field(default_factory=list)  # |Y - Lambda| / Lambda
    counters: dict = field(default_factory=dict)
    declined: str = ""  # the program's own refusal, when it gave one

    @property
    def ok(self) -> bool:
        return not self.problems and not self.declined


def _layer(name):
    # Resolved through the module at call time, so a traced run's
    # wrappers (installed on the module globals) are the ones called.
    return importlib.import_module(f"yamabe_lab.{name}")


class InProcess:
    """Shared set-up of the two in-process workloads."""

    in_process = True

    def declines(self, exc: Exception) -> bool:
        """Whether ``exc`` is the program refusing to answer by its own
        documented check, rather than a crash."""
        return False

    def __init__(self, root: Path, workdir: Path):
        self.root, self.workdir = root, workdir
        self.input_dir = workdir / "inputs"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        for name in ("config", "manifold", "radial", "functional",
                     "subcritical", "exhaustion"):
            _layer(name)

    def _load(self, ops):
        config = _layer("config")
        self.configs = [config.load_config(op["path"]) for op in ops]
        self.profiles = [config.profile_from_config(c) for c in self.configs]

    def warm_up(self) -> None:
        """One tiny continuation and one quadrature: first-call costs of
        LAPACK and QUADPACK are paid before timing starts."""
        manifold, radial = _layer("manifold"), _layer("radial")
        profile = manifold.euclidean(3, r_max=2.0)
        _layer("subcritical").continue_to_critical(
            profile, radial.RadialGrid(j=1.0, N=64))
        _layer("functional").cylinder_length(profile, 1.0, 2.0)


class Balls(InProcess):
    """The in-process exhaust pipeline on jittered radii."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(root, workdir)
        self.ops = inputs.ball_inputs(root, seed, self.input_dir)
        self._load(self.ops)

    def declines(self, exc: Exception) -> bool:
        # run_exhaustion's consistency check: it raises rather than
        # return a Y_j sequence that grows with the ball.
        return isinstance(exc, _layer("errors").MonotonicityError)

    def call(self, k: int):
        ex = _layer("exhaustion")
        rc, profile = self.configs[k], self.profiles[k]
        sol = rc.solver
        trace = ex.run_exhaustion(
            profile, rc.pipeline.radii, nodes_per_unit=rc.grid.nodes_per_unit,
            s_start=sol.s_start, count=sol.count, eps_s=sol.eps_s,
            tol=sol.tol, max_iters=sol.max_iters)
        sub = ex.subsolution_check(trace, trace.largest.j, profile)
        bound = ex.boundary_bound(trace)
        verdict = ex.concentration_verdict(trace, R=rc.pipeline.compact_radius)
        manifest = ex.save_trace(trace, self.workdir / f"balls_op{k}")
        loaded = ex.load_trace(manifest)
        fit = ex.decay_fit(loaded, window_frac=rc.pipeline.window_frac)
        return trace, sub, bound, verdict, loaded, fit

    def check(self, k: int, raw) -> Outcome:
        import numpy as np

        trace, sub, bound, verdict, loaded, fit = raw
        out = Outcome()
        lam = checks.sobolev_lambda(trace.n)
        if list(trace.radii) != self.ops[k]["radii"]:
            out.problems.append(f"radii {trace.radii} != generated")
        for rec in trace.records:
            err = checks.rel_err(rec.y, lam)
            out.errs.append(err)
            if not err <= checks.BALL_ERR_BUDGET:
                out.problems.append(
                    f"Y_{rec.j:g} = {rec.y:.6f} off Lambda by {err:.3e}")
        if not sub.passed:
            out.problems.append("extension by zero is not a subsolution")
        if not bound.passed:
            out.problems.append(f"boundary maxima drift (ratio {bound.ratio})")
        if verdict.kind not in VERDICT_KINDS:
            out.problems.append(f"unknown verdict '{verdict.kind}'")
        if [r.y for r in loaded.records] != [r.y for r in trace.records] or \
                not all(np.array_equal(a.field.values, b.field.values)
                        for a, b in zip(loaded.records, trace.records)):
            out.problems.append("trace did not survive save/load unchanged")
        if not math.isfinite(fit.alpha_fitted):
            out.problems.append("decay fit is not finite")
        return out


class Exterior(InProcess):
    """exterior_quotient at jittered inner radii, plus the scalar bound."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(root, workdir)
        self.ops = inputs.exterior_inputs(root, seed, self.input_dir)
        self._load(self.ops)

    def call(self, k: int):
        functional = _layer("functional")
        profile = self.profiles[k]
        estimate = functional.exterior_quotient(profile, self.ops[k]["r_in"])
        lower = functional.scalar_lower_bound(profile)
        return estimate, lower

    def check(self, k: int, raw) -> Outcome:
        estimate, lower = raw
        out = Outcome()
        profile = self.profiles[k]
        lam = checks.sobolev_lambda(profile.n)
        value, err = estimate.value, checks.rel_err(estimate.value, lam)
        length = checks.conformal_length(profile.f, estimate.r_in,
                                         estimate.r_out)
        capped = length >= checks.LENGTH_CAP
        out.counters = {"exterior": 1, "capped": int(capped),
                        "above_aubin": 0, "steps": len(estimate.history)}
        if not estimate.stabilized:
            out.problems.append("exterior estimate did not stabilize")
        if not value >= lam * (1.0 - checks.FLOOR_TOL):
            out.problems.append(f"exterior estimate {value} below Lambda")
        if capped:
            out.errs.append(err)
            if not err <= checks.CAPPED_EXTERIOR_ERR_BUDGET:
                out.problems.append(f"capped estimate off Lambda by {err:.3e}")
        elif value > lam * (1.0 + checks.AUBIN_TOL):
            out.counters["above_aubin"] = 1
        elif not err <= checks.UNCAPPED_EXTERIOR_ERR_BUDGET:
            out.problems.append(f"estimate at L = {length:.3f} off Lambda "
                                f"by {err:.3e}")
        if not lower.divergent and not lower.value <= min(0.0, value):
            out.problems.append(f"scalar lower bound {lower.value} exceeds "
                                "min(0, estimate)")
        return out


@dataclass
class ProcessResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    spans: Path | None


class ColdCli:
    """A fresh ``yamabe-lab`` process per operation."""

    in_process = False

    def declines(self, exc: Exception) -> bool:
        return False

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.workdir = root, workdir
        input_dir = workdir / "inputs"
        input_dir.mkdir(parents=True, exist_ok=True)
        self.input_dir = input_dir
        self.lam3 = checks.sobolev_lambda(3)
        self.ops = inputs.cold_cli_inputs(root, seed, input_dir, self.lam3)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.calls = 0

    def warm_up(self) -> None:
        """One untimed process, so the timed ones find compiled bytecode
        and a warm file cache."""
        self.call(0)

    def argv(self, k: int, spans: Path | None) -> list:
        op = self.ops[k]
        if spans is None:
            head = [sys.executable, "-m", "yamabe_lab.cli"]
        else:
            head = [sys.executable,
                    str(Path(__file__).resolve().parent / "cli_child.py"),
                    str(spans)]
        args = [op["command"], "--config", op["path"]]
        if op["command"] == "blowup":
            args += ["--field", op["field"]]
        return head + args

    def call(self, k: int, traced: bool = False) -> ProcessResult:
        self.calls += 1
        spans = (self.workdir / f"cli_{self.calls}.spans.json" if traced
                 else None)
        proc = subprocess.run(self.argv(k, spans), capture_output=True,
                              env=self.env, cwd=self.root,
                              timeout=CLI_TIMEOUT_S)
        return ProcessResult(proc.returncode, proc.stdout, proc.stderr, spans)

    def check(self, k: int, raw: ProcessResult) -> Outcome:
        out = Outcome()
        op = self.ops[k]
        out.counters = {"report_bytes": len(raw.stdout)}
        if raw.returncode != 0:
            tail = raw.stderr.decode(errors="replace").strip()[-300:]
            out.problems.append(f"exit {raw.returncode}: {tail}")
            return out
        try:
            envelope = json.loads(raw.stdout)
            config = envelope["config"]
            report = envelope["report"]
        except (ValueError, KeyError, TypeError) as exc:
            out.problems.append(f"no JSON envelope: {exc}")
            return out
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        if envelope.get("config_hash") != \
                hashlib.sha256(canonical.encode()).hexdigest():
            out.problems.append("config_hash does not match the config")
        if envelope.get("command") != op["command"]:
            out.problems.append(f"envelope command {envelope.get('command')}")
        generated = json.loads(Path(op["path"]).read_text())
        for block, values in generated.items():
            for key, value in values.items():
                if config.get(block, {}).get(key) != value:
                    out.problems.append(f"config {block}.{key} not as given")
        lam = self.lam3
        if op["command"] == "bubble":
            self._check_bubble(op, report, lam, out)
        else:
            self._check_blowup(op, report, lam, out)
        return out

    @staticmethod
    def _check_bubble(op, report, lam, out) -> None:
        if checks.rel_err(report["lambda"], lam) > 1e-12:
            out.problems.append(f"lambda {report['lambda']} != {lam}")
        rows = report["quotients"]
        if [row["alpha"] for row in rows] != op["alphas"]:
            out.problems.append("quotients do not follow the alpha ladder")
        for row in rows:
            if not row["quotient"] >= lam * (1.0 - checks.FLOOR_TOL):
                out.problems.append(
                    f"bubble quotient {row['quotient']} below Lambda")

    @staticmethod
    def _check_blowup(op, report, lam, out) -> None:
        if report["m"] != op["peak"]:
            out.problems.append(f"field maximum {report['m']} != {op['peak']}")
        if not report["bubble_sup_difference"] <= checks.BLOWUP_SUP_BUDGET:
            out.problems.append("rescaled field is not the standard bubble: "
                                f"{report['bubble_sup_difference']:.3e}")
        identity = report["energy_identity"].get("relative_defect")
        if identity is None or not identity <= checks.BLOWUP_IDENTITY_BUDGET:
            out.problems.append(f"energy identity defect {identity}")
        contradiction = report["contradiction"]
        rhs = contradiction.get("rhs")
        if rhs is None or not contradiction.get("consistent"):
            out.problems.append(f"contradiction test: {contradiction}")
            return
        err = checks.rel_err(rhs, lam)
        out.errs.append(err)
        if not err <= checks.BLOWUP_RHS_ERR_BUDGET:
            out.problems.append(f"Y (int v^p)^(2/n) off Lambda by {err:.3e}")


WORKLOADS = {"balls": Balls, "exterior": Exterior, "cold_cli": ColdCli}
