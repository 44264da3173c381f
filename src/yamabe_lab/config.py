"""Run configuration: JSON-backed dataclass blocks and a stable hash.

A run is described by four blocks (profile, grid, solver, pipeline); every
report embeds the canonical JSON hash of the whole configuration so
reruns are attributable and diffable.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .errors import DomainError


@dataclass(frozen=True)
class ProfileConfig:
    """Which model manifold to run on."""

    name: str = "euclidean"
    n: int = 3
    r_max: float = 1e8
    params: dict = field(default_factory=dict)
    table: str | None = None  # CSV path for name == "table"


@dataclass(frozen=True)
class GridConfig:
    nodes_per_unit: int = 128

    def __post_init__(self):
        if self.nodes_per_unit <= 0:
            raise DomainError(
                f"nodes_per_unit must be positive, got {self.nodes_per_unit}")


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    eps_s: float = 1e-3
    s_start: float = 2.5
    count: int = 16
    max_iters: int = 60


@dataclass(frozen=True)
class PipelineConfig:
    radii: tuple = (2.0, 4.0, 8.0)
    r_in: tuple = (2.0, 4.0)
    compact_radius: float = 1.0
    window_frac: float = 0.5
    alphas: tuple = (0.1, 0.05, 0.025)


@dataclass(frozen=True)
class RunConfig:
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def with_overrides(self, **pipeline_overrides) -> "RunConfig":
        return replace(self, pipeline=replace(self.pipeline,
                                              **pipeline_overrides))


_BLOCKS = {"profile": ProfileConfig, "grid": GridConfig,
           "solver": SolverConfig, "pipeline": PipelineConfig}


def _build_block(cls, data: dict):
    if not isinstance(data, dict):
        raise DomainError(
            f"config block '{cls.__name__}' must be a JSON object")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise DomainError(
            f"unknown key(s) {sorted(unknown)} in config block "
            f"'{cls.__name__}'; known: {sorted(known)}")
    hints = typing.get_type_hints(cls)
    coerced = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if not _has_type(value, hints[f.name]):
            raise DomainError(
                f"config key '{f.name}' in block '{cls.__name__}' must be "
                f"{f.type}, got {value!r}")
        if hints[f.name] is tuple:
            if not value:
                raise DomainError(
                    f"config key '{f.name}' in block '{cls.__name__}' must "
                    f"list at least one number")
            value = tuple(value)
        coerced[f.name] = value
    return cls(**coerced)


def _has_type(value, hint) -> bool:
    """JSON value check against a field annotation: ints pass as floats,
    bools as neither, floats must be finite (JSON gives NaN, and inf for
    1e400), and tuples are lists of such numbers."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, arm) for arm in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return (isinstance(value, numbers.Real)
                and abs(value) <= sys.float_info.max)
    if hint is tuple:
        return isinstance(value, (list, tuple)) and all(
            _has_type(item, float) for item in value)
    return isinstance(value, hint)


def load_config(path) -> RunConfig:
    """Read a RunConfig from a JSON file; unknown keys are rejected."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise DomainError(f"config {path} must hold a JSON object")
    unknown = set(raw) - set(_BLOCKS)
    if unknown:
        raise DomainError(
            f"unknown config block(s) {sorted(unknown)}; "
            f"known: {sorted(_BLOCKS)}")
    blocks = {key: _build_block(cls, raw.get(key, {}))
              for key, cls in _BLOCKS.items()}
    return RunConfig(**blocks)


def config_hash(config: RunConfig) -> str:
    """sha256 of the canonical (sorted, compact) JSON of the config."""
    canonical = json.dumps(asdict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def profile_from_config(config: RunConfig):
    from .manifold import make_profile

    block = config.profile
    return make_profile(block.name, n=block.n, r_max=block.r_max,
                        params=dict(block.params), table_path=block.table)
