"""The benchmark's use of the package: every traced name resolves, and one
operation of each workload runs and passes its checks.

The benchmark in ``perfbench/`` imports functions, keywords and dataclass
fields of ``yamabe_lab`` by name; a rename or a dropped keyword there
fails these tests instead of the benchmark run.
"""

import importlib
import sys

import pytest

from conftest import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from yamabe_lab.constants import lambda_constant  # noqa: E402
from yamabe_lab.radial import load_field_csv  # noqa: E402


@pytest.mark.parametrize("target", tracer.TARGETS,
                         ids=[t[2] + ":" + t[1] for t in tracer.TARGETS])
def test_trace_target_resolves(target):
    module_name, attr = target[0], target[1]
    obj = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("name", ["balls", "exterior", "cold_cli"])
def test_workload_first_op_passes(name, tmp_path):
    workload = workloads.WORKLOADS[name](REPO_ROOT, 1, tmp_path)
    workload.warm_up()
    raw = workload.call(0)
    outcome = workload.check(0, raw)
    assert outcome.ok, (outcome.problems, outcome.declined)


@pytest.mark.parametrize("name, counters", [
    ("balls", [("subcritical.solve", "iterations"),
               ("subcritical.continuation", "steps")]),
    ("exterior", [("functional.exterior", "steps")]),
])
def test_workload_first_op_traced(name, counters, tmp_path):
    # The --trace hooks read fields of the returned objects; a field a
    # hook needs that goes missing fails here.
    workload = workloads.WORKLOADS[name](REPO_ROOT, 1, tmp_path)
    workload.warm_up()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        raw = workload.call(0)
    finally:
        recorder.uninstall()
    outcome = workload.check(0, raw)
    assert outcome.ok, (outcome.problems, outcome.declined)
    totals = tracer.layer_totals(recorder.spans)
    for span, counter in counters:
        assert totals[span][counter] > 0, (span, counter)


@pytest.mark.parametrize("seed", range(1, 8))
def test_cold_cli_fields_start_at_the_pole(seed, tmp_path):
    # blowup --field refuses a field CSV whose first r is not 0; every
    # field the cold_cli workload writes loads as a ball, so no op meets
    # that refusal.
    ops = inputs.cold_cli_inputs(REPO_ROOT, seed, tmp_path,
                                 lambda_constant(3))
    blowups = [op for op in ops if op["command"] == "blowup"]
    assert blowups
    for op in blowups:
        grid = load_field_csv(op["field"]).grid
        assert (grid.N, grid.j) == (op["nodes"], op["radius"])
