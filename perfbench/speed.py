"""Machine-speed calibration of the end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed for one
and the same computation drifts by up to a factor of two, for seconds
and for minutes at a time.  A fixed reference computation -- the
benchmark's own code, no part of the program: small banded solves,
dot products and a Python loop, the mix the program's solvers run --
is timed right before and right after each timed operation and each
set-up probe, and every end-to-end timing is reported as

    wall seconds * REFERENCE_S / (the faster of the two reference times),

that is, in seconds at the speed at which the reference takes
REFERENCE_S.  The faster of the two is taken because a stall (another
process scheduled in) only ever lengthens a reference time.  The raw
wall times and the speed factors are printed on the ``info`` line.
"""

from __future__ import annotations

import time

# About the typical faster-of-two reference time between timed ops on
# the 2-vCPU virtual machine the benchmark was written on (Python 3.11,
# numpy and scipy with OpenBLAS).
REFERENCE_S = 3.5e-3

_NODES = 512
_ROUNDS = 60
_LOOP = 200
_state = {}


def _inputs():
    if not _state:
        import numpy as np
        from scipy.linalg import solve_banded

        ab = np.vstack([np.full(_NODES, -1.0), np.full(_NODES, 4.0),
                        np.full(_NODES, -1.0)])
        x = np.linspace(0.0, 1.0, _NODES)
        _state.update(solve=solve_banded, ab=ab, x=x)
        reference_seconds()  # first-call costs
    return _state


def reference_seconds() -> float:
    """Wall time of one reference computation."""
    state = _inputs()
    solve, ab, x = state["solve"], state["ab"], state["x"]
    start = time.perf_counter()
    total = 0.0
    for _ in range(_ROUNDS):
        v = solve((1, 1), ab, x)
        total += float(v @ v)
        for j in range(_LOOP):
            total += j
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale factor of a timing taken between two reference times."""
    return REFERENCE_S / min(before, after)
