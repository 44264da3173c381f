"""Seeded inputs for the three workloads.

Every input is a jittered copy of a shipped configuration (or, for the
blow-up fields, of a bubble-shaped field) written as a file under the
run's work directory; the only other input is the ``r_in`` argument of
each exterior call.  The same (workload, seed) pair always yields the
same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

SHIPPED = ("flat3", "bump3", "cigar3", "hyperbolic3")

# Relative jitter applied around the shipped values.
RADIUS_JITTER = 0.10
R_IN_JITTER = 0.20
ALPHA_JITTER = 0.10

# balls: stratified draws per shipped radius and config (16 pipelines).
# The largest radius of each config takes the centres of the BALL_DRAWS
# slices, in seeded order, rather than a seeded point in each slice: the
# estimator breaks down on some of the largest balls (on bump3 near 8,
# Newton fails, Y_j falls back to the witness and run_exhaustion raises
# MonotonicityError), and the same set of largest radii in every run
# keeps the share of such failures the same from seed to seed.
BALL_DRAWS = 4
# exterior: draws per entry of a config's r_in list, the same for every
# entry, as the constants command calls exterior_quotient once per entry
# (two entries on flat3, bump3 and cigar3, one on hyperbolic3).  Cigar
# draws reach the length cap; hyperbolic draws never do (its conformal
# length is ~0.27), nor do flat and bump ones.
EXTERIOR_DRAWS_PER_R_IN = 3
# cold_cli: per shipped config one bubble ladder and one blow-up field.
FIELD_NODES_PER_UNIT = 256


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


def _stratified(rng: random.Random, value: float, rel: float,
                count: int, offset: float | None = None) -> list:
    """``count`` jittered copies of ``value``, one in each of ``count``
    equal slices of [value (1 - rel), value (1 + rel)], in random order;
    at a seeded place of its own in each slice, or at ``offset`` (0.5: the
    slice centres).

    Every seed covers the whole window, so means and maxima over one
    seed's inputs vary little from seed to seed.
    """
    offsets = [rng.random() if offset is None else offset
               for _ in range(count)]
    draws = [round(value * (1.0 + rel * (2.0 * (i + o) / count - 1.0)), 6)
             for i, o in enumerate(offsets)]
    rng.shuffle(draws)
    return draws


def shipped_config(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / f"{name}.json").read_text())


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, sort_keys=True, indent=1) + "\n")


def _interleave(per_config: dict) -> list:
    """Round-robin over the configs' lists, so any prefix mixes them."""
    order = []
    for index in range(max(len(items) for items in per_config.values())):
        for items in per_config.values():
            if index < len(items):
                order.append(items[index])
    return order


def ball_inputs(root: Path, seed: int, out: Path) -> list:
    """One exhaust pipeline per op: a shipped config with jittered radii."""
    rng = _rng("balls", seed)
    per_config = {}
    for name in SHIPPED:
        config = shipped_config(root, name)
        pipeline = config["pipeline"]
        *smaller, largest = pipeline["radii"]
        columns = [_stratified(rng, r, RADIUS_JITTER, BALL_DRAWS)
                   for r in smaller]
        columns.append(_stratified(rng, largest, RADIUS_JITTER, BALL_DRAWS,
                                   offset=0.5))
        per_config[name] = []
        for radii in zip(*columns):
            radii = list(radii)
            if not pipeline["compact_radius"] < radii[0] or \
                    radii != sorted(set(radii)) or \
                    radii[-1] > config["profile"]["r_max"]:
                raise ValueError(f"bad jittered radii {radii} for {name}")
            per_config[name].append((name, config, radii))
    ops = []
    for name, config, radii in _interleave(per_config):
        config = dict(config, pipeline=dict(config["pipeline"], radii=radii))
        path = out / f"balls_{len(ops)}.json"
        _write_config(path, config)
        ops.append({"config": name, "path": str(path), "radii": radii})
    return ops


def exterior_inputs(root: Path, seed: int, out: Path) -> list:
    """One exterior_quotient call per op at a jittered inner radius."""
    rng = _rng("exterior", seed)
    per_config = {}
    for name in SHIPPED:
        config = shipped_config(root, name)
        path = out / f"exterior_{name}.json"
        _write_config(path, config)
        r_ins = [r for base in config["pipeline"]["r_in"]
                 for r in _stratified(rng, base, R_IN_JITTER,
                                      EXTERIOR_DRAWS_PER_R_IN)]
        rng.shuffle(r_ins)
        per_config[name] = [{"config": name, "path": str(path), "r_in": r}
                            for r in r_ins]
    return _interleave(per_config)


def standard_bubble(n: int, lam: float, x):
    """v(x) = (1 + lam x^2 / (n(n-2)))^{-(n-2)/2}, the entire solution."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    return (1.0 + lam * x**2 / (n * (n - 2))) ** (-(n - 2) / 2.0)


def write_bubble_field(path: Path, n: int, lam: float, peak: float,
                       radius: float, nodes: int) -> None:
    """Bubble of height ``peak`` at the pole, cut off smoothly to zero on
    the outer quarter of [0, radius]; dirichlet-zero at the last node."""
    import numpy as np

    r = np.linspace(0.0, radius, nodes + 1)
    delta = peak ** (1.0 - n / (n - 2.0))  # m^{1 - p/2}, p = 2n/(n-2)
    u = peak * standard_bubble(n, lam, r / delta)
    t = np.clip((r - 0.75 * radius) / (0.25 * radius), 0.0, 1.0)
    u *= 0.5 * (1.0 + np.cos(math.pi * t))
    u[-1] = 0.0
    lines = ["r,u\n"] + [f"{float(a)!r},{float(b)!r}\n" for a, b in zip(r, u)]
    path.write_text("".join(lines))


def cold_cli_inputs(root: Path, seed: int, out: Path, lam3: float) -> list:
    """Alternating bubble ladders and blow-up fields over the configs."""
    rng = _rng("cold_cli", seed)
    ops = []
    for name in SHIPPED:
        config = shipped_config(root, name)
        pipeline = config.setdefault("pipeline", {})
        alphas = [_jitter(rng, a, ALPHA_JITTER)
                  for a in pipeline.get("alphas", (0.1, 0.05, 0.025))]
        pipeline["alphas"] = sorted(alphas, reverse=True)
        path = out / f"cold_bubble_{name}.json"
        _write_config(path, config)
        ops.append({"command": "bubble", "config": name, "path": str(path),
                    "alphas": pipeline["alphas"]})

        field_config = shipped_config(root, name)
        n = field_config["profile"]["n"]
        if n != 3:
            raise ValueError("bubble fields are generated for n = 3")
        peak = round(rng.uniform(2.0, 4.0), 6)
        radius = _jitter(rng, 5.0, 0.2)
        nodes = int(round(FIELD_NODES_PER_UNIT * radius))
        field = out / f"cold_field_{name}.csv"
        write_bubble_field(field, n, lam3, peak, radius, nodes)
        cpath = out / f"cold_blowup_{name}.json"
        _write_config(cpath, field_config)
        ops.append({"command": "blowup", "config": name, "path": str(cpath),
                    "field": str(field), "peak": peak, "radius": radius,
                    "nodes": nodes})
    return ops


def digest(directory: Path, ops: list) -> str:
    """sha256 over every generated file (name and bytes), in name order,
    and over the op list without its file paths (which name the run's
    temporary directory)."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    h.update(json.dumps([{k: v for k, v in op.items()
                          if k not in ("path", "field")} for op in ops],
                        sort_keys=True).encode())
    return h.hexdigest()
