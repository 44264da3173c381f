"""Determinism self-check of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed 1] [--workloads balls,exterior,cold_cli]

For each workload it makes two traced and two untraced one-second runs
with one seed and one untraced run with the next seed.  It passes when
the same-seed runs agree exactly on the generated inputs (their digest),
on every per-layer count, computed byte count and count ratio, on
``err_rel.*`` and on which ops failed their checks or were declined by
the program; and when the other seed generates different inputs.  Failed
checks and declined ops themselves are reported as notes: they are the
program's, and the runs report them (``correct: false``, ``pass_ratio``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
# Per-layer units whose values are counts or ratios of counts; the one
# ratio of times is excluded by name.
EXACT_UNITS = ("count", "B_computed", "B", "ratio")
TIMING_RATIOS = ("trace.overhead_ratio",)


def bench(workload: str, seed: int, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    failures = [line for line in out.stderr.splitlines()
                if line.startswith(("check failed", "declined"))]
    return info, json.loads(lines[-1]), failures


def exact_metrics(result: dict, trace: int) -> dict:
    metrics = result["metrics"]
    if trace == 0:
        return {name: m["value"] for name, m in metrics.items()
                if name.startswith("err_rel.")}
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in EXACT_UNITS and name not in TIMING_RATIOS}


def check_workload(workload: str, seed: int) -> tuple:
    problems, notes = [], []
    digests = set()
    for trace in (1, 0):
        runs = [bench(workload, seed, trace) for _ in range(2)]
        (info_a, res_a, fail_a), (info_b, res_b, fail_b) = runs
        digests.update((info_a["inputs_digest"], info_b["inputs_digest"]))
        for key in ("correct", "attempted", "failed"):
            if res_a[key] != res_b[key]:
                problems.append(f"trace {trace}: {key} differs: "
                                f"{res_a[key]} vs {res_b[key]}")
        if fail_a != fail_b:
            problems.append(f"trace {trace}: other ops failed or were "
                            f"declined: {fail_a} vs {fail_b}")
        if info_a["declined"] != info_b["declined"]:
            problems.append(f"trace {trace}: declined differs: "
                            f"{info_a['declined']} vs {info_b['declined']}")
        if not res_a["correct"]:
            notes.append(f"trace {trace}: {res_a['failed']} of "
                         f"{res_a['attempted']} ops failed their checks")
        if info_a["declined"]:
            notes.append(f"trace {trace}: {info_a['declined']} of "
                         f"{res_a['attempted']} ops declined by the program")
        exact_a, exact_b = exact_metrics(res_a, trace), exact_metrics(res_b,
                                                                      trace)
        for name in sorted(exact_a):
            if exact_a[name] != exact_b[name]:
                problems.append(f"trace {trace}: {name} differs: "
                                f"{exact_a[name]} vs {exact_b[name]}")
    if len(digests) != 1:
        problems.append(f"same seed generated different inputs: {digests}")
    other, _, _ = bench(workload, seed + 1, 0)
    if other["inputs_digest"] in digests:
        problems.append(f"seed {seed + 1} generated the inputs of seed {seed}")
    return problems, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default="balls,exterior,cold_cli")
    args = parser.parse_args()
    failed = False
    for workload in args.workloads.split(","):
        problems, notes = check_workload(workload, args.seed)
        failed |= bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
        for note in notes:
            print(f"  note: {note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
