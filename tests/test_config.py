"""Configuration loading, hashing, and profile construction."""

import json

import pytest

from yamabe_lab.config import (RunConfig, config_hash, load_config,
                               profile_from_config)
from yamabe_lab.errors import DomainError


def test_defaults():
    cfg = RunConfig()
    assert cfg.profile.name == "euclidean"
    assert cfg.pipeline.radii == (2.0, 4.0, 8.0)
    assert cfg.solver.count == 16


def test_load_and_coerce(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "profile": {"name": "power_bump", "n": 4, "r_max": 30.0,
                    "params": {"a": 1.0, "b": 0.5}},
        "pipeline": {"radii": [1.0, 2.0, 4.0]},
    }))
    cfg = load_config(path)
    assert cfg.profile.n == 4
    assert cfg.pipeline.radii == (1.0, 2.0, 4.0)  # list -> tuple
    prof = profile_from_config(cfg)
    assert prof.name == "power_bump" and prof.n == 4


def test_unknown_block_and_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"profiles": {}}))
    with pytest.raises(DomainError, match="unknown config block"):
        load_config(path)
    path.write_text(json.dumps({"profile": {"nam": "euclidean"}}))
    with pytest.raises(DomainError, match="unknown key"):
        load_config(path)


def test_hash_stability_and_sensitivity():
    a = RunConfig()
    b = RunConfig()
    assert config_hash(a) == config_hash(b)
    c = a.with_overrides(radii=(1.0, 2.0, 3.0))
    assert config_hash(c) != config_hash(a)
    assert len(config_hash(a)) == 64  # sha256 hex


def test_shipped_configs_load(configs_dir):
    for name in ("flat3.json", "bump3.json", "cigar3.json",
                 "hyperbolic3.json"):
        cfg = load_config(configs_dir / name)
        prof = profile_from_config(cfg)
        assert prof.n == 3
        assert len(cfg.pipeline.radii) >= 3


@pytest.mark.parametrize("block, match", [
    ({"profile": {"n": "3"}}, "must be int"),
    ({"profile": {"n": True}}, "must be int"),
    ({"solver": {"tol": "x"}}, "must be float"),
    ({"pipeline": {"radii": [2.0, "x"]}}, "must be tuple"),
    ({"grid": {"nodes_per_unit": -5}}, "must be positive"),
    ({"grid": 5}, "must be a JSON object"),
    # JSON reads NaN, 1e400 as inf, and a 400-digit int that no float holds
    ({"pipeline": {"window_frac": float("nan")}},
     "'window_frac' .* must be float"),
    ({"profile": {"r_max": float("inf")}}, "'r_max' .* must be float"),
    ({"profile": {"r_max": 10**400}}, "'r_max' .* must be float"),
    ({"pipeline": {"radii": [2.0, 4.0, float("nan")]}}, "must be tuple"),
])
def test_bad_values_rejected(tmp_path, block, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(block))
    with pytest.raises(DomainError, match=match):
        load_config(path)


def test_ints_accepted_for_floats_and_null_for_optionals(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "profile": {"r_max": 30, "table": None},
        "pipeline": {"radii": [1, 2.5, 4]},
    }))
    cfg = load_config(path)
    assert cfg.profile.r_max == 30 and cfg.pipeline.radii == (1, 2.5, 4)
