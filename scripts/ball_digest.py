#!/usr/bin/env python3
"""Print one line per distinct input of the benchmark's in-process
workloads, ``balls`` and ``exterior``.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/ball_digest.py 1-7 > digest.txt

SEEDS is a comma list of seeds and ranges, such as ``1,3,5-7``.  The
inputs are those of ``perfbench/inputs.py``, each taken once, in the
order the inputs first name it.  Each ball is solved as
``run_exhaustion`` solves it; its line holds the config name, the radius
``j``, ``repr(Y_j)``, the multipliers ``lam_values``, the full
concentration reason and the sha256 of the stored field's values.  A
subsolution line follows each ball line: ``repr`` of
``subsolution_check``'s ``max_violation``, ``tol``, ``passed``,
``s_checked`` and ``lam_checked`` on a one-ball trace.  The
exterior lines follow, one per (config, ``r_in``): ``repr`` of the
``exterior_quotient`` value and of the ``scalar_lower_bound`` value, and
the bound's ``divergent`` flag.  Last come the ``Q_rad`` lines, one per
(n, L): ``repr`` of ``radial_cylinder_quotient(n, L)`` at n = 3, 4, 5
on the lengths ``Q_RAD_LENGTHS`` and the cap 80/sqrt(a), where
a = ((n-2)/2)^2.  Equal output from two checkouts means
equal answers, bit for bit, so a change that claims to keep every answer
can be checked with ``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from yamabe_lab.config import load_config, profile_from_config
from yamabe_lab.exhaustion import (ExhaustionTrace, f_at_radii, solve_ball,
                                   subsolution_check)
from yamabe_lab.functional import (exterior_quotient,
                                   radial_cylinder_quotient,
                                   scalar_lower_bound)

ROOT = Path(__file__).resolve().parents[1]
# The lengths of test_radial_cylinder_quotient_matches_scipy_arithmetic.
Q_RAD_LENGTHS = (0.05, 0.1, 0.2723, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0,
                 17.7, 20.5, 25.0, 30.0, 40.0)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def digest_lines(seeds) -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        seen = set()
        for seed in seeds:
            out = Path(tmp) / f"balls{seed}"
            out.mkdir()
            for op in inputs.ball_inputs(ROOT, seed, out):
                config = load_config(op["path"])
                profile = profile_from_config(config)
                sol = config.solver
                for j in config.pipeline.radii:
                    if (op["config"], j) in seen:
                        continue
                    seen.add((op["config"], j))
                    rec = solve_ball(
                        profile, j, config.grid.nodes_per_unit,
                        s_start=sol.s_start, count=sol.count,
                        eps_s=sol.eps_s, tol=sol.tol,
                        max_iters=sol.max_iters)
                    sha = hashlib.sha256(rec.field.values.tobytes())
                    lines.append(
                        f"{op['config']} j={j!r} y={rec.y!r} "
                        f"lam_values={list(rec.lam_values)!r} "
                        f"reason={rec.concentration_reason!r} "
                        f"field={sha.hexdigest()}")
                    trace = ExhaustionTrace(
                        profile_name=profile.name, n=profile.n,
                        r_max=float(profile.r_max),
                        f_radii=f_at_radii(profile, [j]), records=(rec,))
                    sub = subsolution_check(trace, j, profile)
                    lines.append(
                        f"  subsolution max_violation={sub.max_violation!r} "
                        f"tol={sub.tol!r} passed={sub.passed!r} "
                        f"s_checked={sub.s_checked!r} "
                        f"lam_checked={sub.lam_checked!r}")
        seen = set()
        for seed in seeds:
            out = Path(tmp) / f"exterior{seed}"
            out.mkdir()
            for op in inputs.exterior_inputs(ROOT, seed, out):
                if (op["config"], op["r_in"]) in seen:
                    continue
                seen.add((op["config"], op["r_in"]))
                profile = profile_from_config(load_config(op["path"]))
                estimate = exterior_quotient(profile, op["r_in"])
                lower = scalar_lower_bound(profile)
                lines.append(
                    f"{op['config']} r_in={op['r_in']!r} "
                    f"value={estimate.value!r} lower={lower.value!r} "
                    f"divergent={lower.divergent!r}")
    for n in (3, 4, 5):
        cap = 80.0 / ((n - 2) / 2.0)  # 80/sqrt(a)
        for length in Q_RAD_LENGTHS + (cap,):
            lines.append(f"Q_rad n={n} L={length!r} "
                         f"value={radial_cylinder_quotient(n, length)!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", help="seeds and ranges, such as 1,3,5-7")
    args = parser.parse_args(argv)
    for line in digest_lines(parse_seeds(args.seeds)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
