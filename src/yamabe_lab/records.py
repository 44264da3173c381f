"""The per-ball record of a continuation solve, importable without the
solver: the exhaustion trace and its reader need the record type alone,
and the solver binds LAPACK from scipy at import."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .radial import RadialField


@dataclass(frozen=True)
class ContinuationResult:
    """Outcome of the schedule s -> p on the ball of radius ``j``; an
    exhaustion trace holds one per ball."""

    j: float
    schedule: tuple
    lam_values: tuple
    q_p_witness: float
    y_critical: float | None
    field: RadialField | None = dc_field(repr=False)
    concentration: bool
    concentration_reason: str
    critical_residual: float | None

    @property
    def y(self) -> float:
        """Critical multiplier when the polish is attained, else the
        critical-quotient witness of the last solved field.  Either one is
        the discrete Yamabe quotient of ``field``."""
        if self.y_critical is not None:
            return self.y_critical
        return self.q_p_witness
