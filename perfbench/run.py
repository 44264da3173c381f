"""yamabe-lab benchmark: seeded workloads, exact-answer checks, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload balls --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client, one operation at a time):

* ``balls``    -- the in-process ``exhaust`` pipeline (run_exhaustion,
                  subsolution_check, boundary_bound, concentration_verdict,
                  save_trace, load_trace, decay_fit) on jittered radii;
* ``exterior`` -- one ``exterior_quotient`` call (plus
                  ``scalar_lower_bound``) per operation at jittered r_in;
* ``cold_cli`` -- one fresh ``yamabe-lab bubble`` or ``blowup --field``
                  process per operation.

``--trace 0`` times operations for ``--seconds`` (of op time scaled to
a reference machine speed, ``speed.py``) and prints the end-to-end
metrics.  ``--trace 1`` alternates traced and untraced passes
over the seeded input list for ``--seconds`` and prints the per-layer
metrics of one pass (counts from the first traced pass, times as the
median over traced passes) and the tracing overhead.  The last line of
standard output is the JSON result; the line before it, starting with
``info``, carries the input digest, sample counts and other context.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import speed
import tracer
import workloads

SETUP_PROBES = 5
LAYER_MODULES = ("manifold", "radial", "functional", "subcritical",
                 "exhaustion", "blowup", "cli")
WORK_ROOT = ".perfbench_work"
SPANS_ROOT = ".perfbench_out"
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"),
    ("op_s.tail", "s"), ("err_rel.mean", "ratio"),
    ("err_rel.max", "ratio"), ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

_SELF = "s"
_COUNT = "count"
_RATIO = "ratio"
_COMPUTED_BYTES = "B_computed"
PER_LAYER = (
    ("subcritical.operator.builds", _COUNT),
    ("subcritical.strong_norm.calls", _COUNT),
    ("radial.midpoint_weights.calls", _COUNT),
    ("radial.node_weights.calls", _COUNT),
    ("subcritical.banded.calls", _COUNT),
    ("subcritical.banded.self_s", _SELF),
    ("subcritical.banded.bytes", _COMPUTED_BYTES),
    ("subcritical.solve.calls", _COUNT),
    ("subcritical.solve.self_s", _SELF),
    ("subcritical.solve.failed", _COUNT),
    ("subcritical.eigenpair.calls", _COUNT),
    ("subcritical.eigenpair.self_s", _SELF),
    ("subcritical.newton_iters", _COUNT),
    ("subcritical.newton_per_solve", _RATIO),
    ("subcritical.continuation.calls", _COUNT),
    ("subcritical.continuation.self_s", _SELF),
    ("subcritical.continuation.steps", _COUNT),
    ("subcritical.polish.attained_ratio", _RATIO),
    ("subcritical.concentration.solver_failure", _COUNT),
    ("subcritical.concentration.spike", _COUNT),
    ("subcritical.concentration.cap", _COUNT),
    ("subcritical.concentration.polish_failed", _COUNT),
    ("functional.exterior.calls", _COUNT),
    ("functional.exterior.self_s", _SELF),
    ("functional.exterior.steps", _COUNT),
    ("functional.exterior.useful_ratio", _RATIO),
    ("functional.exterior.capped_share", _RATIO),
    ("functional.exterior.above_aubin", _COUNT),
    ("functional.cylinder_length.calls", _COUNT),
    ("functional.cylinder_length.self_s", _SELF),
    ("functional.bubble.calls", _COUNT),
    ("functional.bubble.self_s", _SELF),
    ("functional.bubble.nodes", _COUNT),
    ("exhaustion.run.self_s", _SELF),
    ("exhaustion.post.self_s", _SELF),
    ("exhaustion.save_trace.self_s", _SELF),
    ("exhaustion.load_trace.self_s", _SELF),
    ("radial.csv_write.bytes", _COMPUTED_BYTES),
    ("radial.csv_write.self_s", _SELF),
    ("radial.csv_read.bytes", _COMPUTED_BYTES),
    ("radial.csv_read.self_s", _SELF),
    ("radial.lp_norm.calls", _COUNT),
    ("radial.lp_norm.self_s", _SELF),
    ("radial.yamabe_energy.calls", _COUNT),
    ("blowup.rescale.self_s", _SELF),
    ("blowup.identity.self_s", _SELF),
    ("manifold.make_profile.self_s", _SELF),
    ("manifold.scalar_curvature.self_s", _SELF),
    ("cli.main.self_s", _SELF),
    ("cli.report_bytes", "B"),
) + tuple((f"cli.import_s.{m}", _SELF) for m in LAYER_MODULES) + (
    ("trace.overhead_ratio", _RATIO),
)


def program_present(root: Path) -> bool:
    return (root / "src" / "yamabe_lab" / "cli.py").is_file() and \
        all((root / "configs" / f"{name}.json").is_file()
            for name in ("flat3", "bump3", "cigar3", "hyperbolic3"))


def make_workload(name: str, root: Path, seed: int, workdir: Path):
    workload = workloads.WORKLOADS[name](root, seed, workdir)
    workload.warm_up()
    return workload


# -- set-up and import probes (fresh interpreters) ---------------------------


def _python_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def setup_seconds(args, root: Path, workdir: Path) -> tuple:
    """Wall times of complete set-ups (interpreter start, imports, input
    generation, warm-up), each in a fresh interpreter between two
    reference computations, and their speed factors."""
    samples, scales = [], []
    for index in range(SETUP_PROBES):
        probe_dir = workdir / f"setup_probe_{index}"
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--setup-only", str(probe_dir)]
        before = speed.reference_seconds()
        start = time.perf_counter()
        out = subprocess.run(argv, cwd=root, check=True, capture_output=True,
                             text=True, timeout=120)
        # The probe prints perf_counter() (a system-wide clock) when its
        # set-up ends: waiting for its exit would add teardown and the
        # 50 ms polling steps of a wait with a timeout.
        samples.append(float(out.stdout.split()[-1]) - start)
        scales.append(speed.factor(before, speed.reference_seconds()))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples, scales


def import_seconds(root: Path, module: str) -> float:
    code = ("import time; t = time.perf_counter(); "
            f"import yamabe_lab.{module}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         env=_python_env(root), check=True, timeout=60,
                         capture_output=True, text=True)
    return float(out.stdout.strip())


# -- the operation loop ------------------------------------------------------


class Pass:
    """Timings and outcomes of a run of operations.

    An op that fails a check, or raises, is ``failed``; an op whose
    program call raises the program's own documented refusal (see
    ``declines`` in ``workloads``) returned no answer rather than a
    wrong one: it is ``declined``, counted against ``pass_ratio`` but not
    in ``failed``.
    """

    def __init__(self, size: int):
        self.times, self.failed, self.declined, self.attempted = [], 0, 0, 0
        self.scales = []  # speed factor of each time (speed.py)
        self.first = [None] * size  # outcome of each input's first run
        self.passes = 0  # whole passes over the inputs
        self.problems, self.refusals = [], []

    def record(self, k, elapsed, scale, outcome) -> None:
        self.attempted += 1
        self.times.append(elapsed)
        self.scales.append(scale)
        if self.first[k] is None:
            self.first[k] = outcome
        elif outcome.ok and outcome.errs != self.first[k].errs:
            outcome.problems.append("rerun of the same input gave other "
                                    "errors against Lambda")
        elif outcome.declined != self.first[k].declined:
            outcome.problems.append("rerun of the same input was declined "
                                    "differently")
        if outcome.problems:
            self.failed += 1
            self.problems.append(f"op {k}: " + "; ".join(outcome.problems))
        elif outcome.declined:
            self.declined += 1
            self.refusals.append(f"op {k}: {outcome.declined}")

    def add(self, other: "Pass") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.declined += other.declined
        self.problems += other.problems
        self.refusals += other.refusals


def run_op(workload, k, run, traced=False, calibrate=False):
    """Time one op (between two reference computations when
    ``calibrate``), check its output and record both in ``run``."""
    before = speed.reference_seconds() if calibrate else None
    start = time.perf_counter()
    try:
        raw = workload.call(k, traced=True) if traced else workload.call(k)
        error = None
    except Exception as exc:  # a failed or declined op, not a crash
        raw, error = None, exc
    elapsed = time.perf_counter() - start
    scale = speed.factor(before, speed.reference_seconds()) \
        if calibrate else 1.0
    if error is None:
        outcome = workload.check(k, raw)
    else:
        message = f"{type(error).__name__}: {error}"
        outcome = workloads.Outcome()
        if workload.declines(error):
            outcome.declined = message
        else:
            outcome.problems.append(message)
    run.record(k, elapsed, scale, outcome)
    return raw


def whole_passes(seconds: float, one_pass) -> int:
    """Call ``one_pass`` (which returns the seconds it measured) until
    the passes made are as near to ``seconds`` as whole passes can be
    (at least one), so that every input runs equally often and a run
    does not overshoot its time by a whole pass."""
    total, passes = 0.0, 0
    while True:
        total += one_pass()
        passes += 1
        if total + 0.5 * total / passes >= seconds:
            return passes


def timed_loop(workload, seconds: float) -> Pass:
    """Cycle through the inputs in whole passes for about ``seconds`` of
    scaled op time, so that the number of passes, and with it the
    percentile of ``op_s.tail``, does not follow the machine's speed."""
    run = Pass(len(workload.ops))

    def one_pass():
        for k in range(len(workload.ops)):
            run_op(workload, k, run, calibrate=True)
        size = len(workload.ops)
        return sum(t * f for t, f in zip(run.times[-size:],
                                         run.scales[-size:]))

    run.passes = whole_passes(seconds, one_pass)
    return run


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it: the
    (TAIL_BEYOND + 1)-th largest sample, but never below the median
    (short runs).  Returns (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def first_errs(run: Pass) -> list:
    return [err for outcome in run.first if outcome is not None
            for err in outcome.errs]


def end_to_end(args, root: Path, workdir: Path) -> tuple:
    workload = make_workload(args.workload, root, args.seed,
                             workdir / "main")
    run = timed_loop(workload, args.seconds)
    errs = first_errs(run)
    # Read before the set-up probes start: until then the only children
    # are the CLI processes, and RUSAGE_CHILDREN gives the largest one.
    who = resource.RUSAGE_SELF if workload.in_process else \
        resource.RUSAGE_CHILDREN
    rss_kb = resource.getrusage(who).ru_maxrss
    setups, setup_scales = setup_seconds(args, root, workdir)
    times = [t * f for t, f in zip(run.times, run.scales)]
    tail_value, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(t * f for t, f in
                                     zip(setups, setup_scales)),
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_value,
        "err_rel.mean": statistics.fmean(errs) if errs else 1.0,
        "err_rel.max": max(errs) if errs else 1.0,
        "pass_ratio": (run.attempted - run.failed - run.declined)
        / run.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    info = {"inputs": len(workload.ops), "samples": len(run.times),
            "tail_percentile": round(tail_pct, 2),
            "passes": run.passes, "declined": run.declined,
            "fail_ratio": (run.failed + run.declined) / run.attempted,
            "setup_wall_s": setups, "setup_speed": setup_scales,
            "wall": {"ops_per_s": len(run.times) / sum(run.times),
                     "op_s.p50": statistics.median(run.times),
                     "op_s.tail": tail(run.times)[0]},
            "speed": {"min": min(run.scales),
                      "median": statistics.median(run.scales),
                      "max": max(run.scales)},
            "err_count": len(errs),
            "err_rel_median": statistics.median(errs) if errs else None,
            "inputs_digest": inputs.digest(workload.input_dir,
                                           workload.ops)}
    return values, END_TO_END, run, info


# -- traced run --------------------------------------------------------------


def traced_pass(workload, spans_out: Path | None):
    """One pass over every input with the tracer installed.  Returns the
    Pass and the per-span-name totals."""
    run = Pass(len(workload.ops))
    if workload.in_process:
        recorder = tracer.Tracer()
        recorder.install()
        try:
            for k in range(len(workload.ops)):
                run_op(workload, k, run)
        finally:
            recorder.uninstall()
        if spans_out is not None:
            with open(spans_out, "w") as handle:
                handle.write(json.dumps({"op": "all",
                                         "spans": recorder.spans}) + "\n")
        return run, tracer.layer_totals(recorder.spans)
    parts = []
    for k in range(len(workload.ops)):
        raw = run_op(workload, k, run, traced=True)
        if raw is not None and raw.spans.is_file():
            spans = tracer.load_spans(raw.spans)
            parts.append(tracer.layer_totals(spans))
            if spans_out is not None:
                with open(spans_out, "a") as handle:
                    handle.write(json.dumps({"op": k, "spans": spans}) + "\n")
            raw.spans.unlink()
    return run, tracer.merge_totals(parts)


def plain_pass(workload) -> Pass:
    run = Pass(len(workload.ops))
    for k in range(len(workload.ops)):
        run_op(workload, k, run)
    return run


def _get(totals, name, key):
    return totals.get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(totals, run: Pass) -> dict:
    """Per-layer metrics of one traced pass (everything but the import
    times and the overhead ratio)."""
    values = {}
    for name, unit in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if unit == _SELF and not name.startswith("cli.import_s"):
            values[name] = _get(totals, layer, "self_s")
        elif key == "calls":
            values[name] = _get(totals, layer, "calls")
    values["subcritical.operator.builds"] = _get(
        totals, "subcritical.operator", "calls")
    values["subcritical.banded.bytes"] = _get(
        totals, "subcritical.banded", "bytes")
    values["subcritical.solve.failed"] = _get(
        totals, "subcritical.solve", "raised")
    iters = _get(totals, "subcritical.solve", "iterations")
    solved = values["subcritical.solve.calls"] - values[
        "subcritical.solve.failed"]
    values["subcritical.newton_iters"] = iters
    values["subcritical.newton_per_solve"] = _ratio(iters, solved)
    cont = "subcritical.continuation"
    values[f"{cont}.steps"] = _get(totals, cont, "steps")
    values["subcritical.polish.attained_ratio"] = _ratio(
        _get(totals, cont, "polish_attained"),
        _get(totals, cont, "polish_requested"))
    for bucket in ("solver_failure", "spike", "cap", "polish_failed"):
        values[f"subcritical.concentration.{bucket}"] = _get(
            totals, cont, bucket)
    ext = "functional.exterior"
    steps = _get(totals, ext, "steps")
    values[f"{ext}.steps"] = steps
    # One solve per call yields the returned value; the rest of the R_out
    # growth loop only decides when to stop.
    values[f"{ext}.useful_ratio"] = _ratio(values[f"{ext}.calls"], steps)
    counters = {}
    for outcome in run.first:
        for key, value in (outcome.counters if outcome else {}).items():
            counters[key] = counters.get(key, 0) + value
    values[f"{ext}.capped_share"] = _ratio(counters.get("capped", 0),
                                           counters.get("exterior", 0))
    values[f"{ext}.above_aubin"] = counters.get("above_aubin", 0)
    values["functional.bubble.nodes"] = _get(
        totals, "functional.bubble", "child.radial.yamabe_energy.nodes")
    values["radial.csv_write.bytes"] = _get(totals, "radial.csv_write",
                                            "bytes")
    values["radial.csv_read.bytes"] = _get(totals, "radial.csv_read", "bytes")
    values["cli.report_bytes"] = counters.get("report_bytes", 0)
    return values


def useful_by_config(workload, run: Pass) -> dict:
    """functional.exterior.useful_ratio of each shipped config's draws."""
    calls, steps = {}, {}
    for op, outcome in zip(workload.ops, run.first):
        if outcome is not None and "steps" in outcome.counters:
            calls[op["config"]] = calls.get(op["config"], 0) + 1
            steps[op["config"]] = steps.get(op["config"], 0) + \
                outcome.counters["steps"]
    return {name: calls[name] / steps[name] for name in calls}


def per_layer(args, root: Path, workdir: Path) -> tuple:
    imports = {m: import_seconds(root, m) for m in LAYER_MODULES}
    workload = make_workload(args.workload, root, args.seed,
                             workdir / "main")
    spans_dir = root / SPANS_ROOT
    spans_dir.mkdir(exist_ok=True)
    spans_out = spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_out.unlink(missing_ok=True)
    traced, plain, layers = [], [], []

    def pair():
        start = time.perf_counter()
        run, totals = traced_pass(workload, None if traced else spans_out)
        traced.append(run)
        layers.append(layer_values(totals, run))
        plain.append(plain_pass(workload))
        return time.perf_counter() - start

    whole_passes(args.seconds, pair)
    values = {}
    mismatched = []
    for name, unit in PER_LAYER:
        if name.startswith("cli.import_s"):
            values[name] = imports[name.rpartition(".")[2]]
        elif name == "trace.overhead_ratio":
            values[name] = (statistics.median(sum(r.times) for r in traced)
                            / statistics.median(sum(r.times) for r in plain))
        elif unit == _SELF:
            values[name] = statistics.median(v[name] for v in layers)
        else:
            values[name] = layers[0][name]
            if any(v[name] != values[name] for v in layers):
                mismatched.append(name)
    run = Pass(len(workload.ops))
    for part in traced + plain:
        run.add(part)
    for name in mismatched:
        run.failed += 1
        run.problems.append(f"{name} differs between traced passes")
    info = {"inputs": len(workload.ops), "traced_passes": len(traced),
            "declined": run.declined,
            "useful_ratio_by_config": useful_by_config(workload, traced[0]),
            "plain_passes": len(plain), "spans_file": str(spans_out),
            "inputs_digest": inputs.digest(workload.input_dir,
                                           workload.ops),
            "unit_note": "counts and self times are per pass over the "
                         "seeded input list"}
    return values, PER_LAYER, run, info


# -- entry point -------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help="set up in WORKDIR and exit (set-up probe)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not program_present(root):
        print("perfbench: run from the root of a yamabe-lab checkout "
              "(src/yamabe_lab and configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.setup_only:
        make_workload(args.workload, root, args.seed, Path(args.setup_only))
        print(time.perf_counter())
        return 0
    (root / WORK_ROOT).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=root / WORK_ROOT))
    try:
        measure = per_layer if args.trace else end_to_end
        values, spec, run, info = measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for refusal in sorted(set(run.refusals))[:20]:
        print(f"declined: {refusal}", file=sys.stderr)
    for name, unit in spec:
        print(f"{args.workload:9s} {name:42s} {values[name]:.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
