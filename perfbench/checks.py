"""Exact answers and error budgets for the benchmark's output checks.

Every profile the laboratory ships is conformally flat, so the exact
Yamabe constant of every ball is the Sobolev constant Lambda(n) (Lee &
Parker, Bull. AMS 17, 1987), every test-function quotient is at least
Lambda(n), and no domain has Y above Lambda(n) (Aubin 1976).  A synthetic
bubble at Y = Lambda(n) saturates Lambda <= Y (int v^p)^{2/n}.

The budgets are pinned at the largest error measured on the current
program over seeds 1..20, rounded up; they may only ever be tightened.
"""

from __future__ import annotations

import math

# |Y_j - Lambda| / Lambda of each exhausting-ball estimate.
BALL_ERR_BUDGET = 0.045
# Exterior estimates whose conformal length reached the cap (cigar).
CAPPED_EXTERIOR_ERR_BUDGET = 1.0e-5
# Exterior estimates below the cap and not above Lambda (flat, bump).
UNCAPPED_EXTERIOR_ERR_BUDGET = 5.0e-3
# Quotients may undershoot Lambda by discretization error only.
FLOOR_TOL = 1.0e-6
# Above Lambda (1 + AUBIN_TOL) an exterior estimate contradicts Aubin's
# bound; it is counted (functional.exterior.above_aubin), not failed,
# because the radial-only quotient is known not to be sharp there.
AUBIN_TOL = 1.0e-2
# Blow-up diagnostics on the synthetic bubble fields.
BLOWUP_SUP_BUDGET = 5.0e-5
BLOWUP_IDENTITY_BUDGET = 2.0e-6
BLOWUP_RHS_ERR_BUDGET = 1.0e-4

LENGTH_CAP = 25.0  # exterior_quotient's default length_cap


def sobolev_lambda(n: int) -> float:
    """Lambda(n) = n(n-2)/4 * omega_n^{2/n}, omega_n = |S^n|."""
    half = (n + 1) / 2.0
    omega = 2.0 * math.exp(half * math.log(math.pi) - math.lgamma(half))
    return n * (n - 2) / 4.0 * omega ** (2.0 / n)


def rel_err(value: float, lam: float) -> float:
    return abs(value - lam) / lam


def conformal_length(f, r_in: float, r_out: float) -> float:
    """L = int_{r_in}^{r_out} dr / f(r), by adaptive quadrature."""
    from scipy.integrate import quad

    value, _ = quad(lambda t: 1.0 / float(f(t)), r_in, r_out, limit=200)
    return float(value)
