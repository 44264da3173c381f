"""Command-line surface: reports, determinism, exit codes."""

import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yamabe_lab
from yamabe_lab import cli, exhaustion
from yamabe_lab.cli import main
from yamabe_lab.exhaustion import DecayFit, ExponentReport

_TS = re.compile(r'"timestamp": "[^"]*"')


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _strip_ts(text):
    return _TS.sub('"timestamp": "X"', text)


@pytest.fixture(scope="module")
def flat_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "flat.json"
    path.write_text(json.dumps({
        "profile": {"name": "euclidean", "n": 3, "r_max": 1e8},
        "pipeline": {"radii": [1.0, 2.0, 4.0], "r_in": [1.0, 2.0],
                     "compact_radius": 0.5},
    }))
    return str(path)


@pytest.fixture(scope="module")
def exhaust_out(flat_config, tmp_path_factory):
    """One exhaust run shared by the decay/blowup command tests."""
    out = tmp_path_factory.mktemp("exhaust")
    code = main(["exhaust", "--config", flat_config, "--out", str(out)])
    assert code == 0
    return out


# -- happy paths -------------------------------------------------------------


def test_constants_command(flat_config, capsys, tmp_path):
    code, out = _run(capsys, "constants", "--config", flat_config,
                     "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "constants"
    assert report["config_hash"]
    body = report["report"]
    assert body["lambda"] == pytest.approx(5.477904089531331)
    assert body["y_est"] == pytest.approx(body["lambda"], rel=0.05)
    assert body["y_inf_est"] == pytest.approx(body["lambda"], rel=0.01)
    assert body["chain"]["holds"]
    # conformally flat family: the strict-margin condition cannot hold
    assert not body["condition"]["holds"]
    assert "condition fails" in body["verdict"]
    assert body["reason"] is None
    assert all(row["r_out"] == 1e8 for row in body["exterior"])
    assert (tmp_path / "constants.json").exists()


def test_constants_default_config(capsys):
    # The defaults (flat n = 3, r_in 2 and 4) must reach a long enough
    # conformal length for the exterior estimate to stabilize.
    code, out = _run(capsys, "constants")
    assert code == 0
    body = json.loads(out)["report"]
    assert body["reason"] is None
    assert all(row["r_out"] == 1e8 for row in body["exterior"])
    assert body["verdict"] == "condition fails: Y = Y_inf within margin"


def test_constants_hyperbolic_exterior_above_aubin_inconclusive(configs_dir,
                                                                capsys):
    # int_2^30 dr/sinh is finite, so the radial exterior estimate sits far
    # above Lambda(3); Aubin's bound forbids that, so no verdict is drawn.
    code, out = _run(capsys, "constants", "--config",
                     str(configs_dir / "hyperbolic3.json"))
    assert code == 0
    body = json.loads(out)["report"]
    assert body["y_inf_est"] > 1.01 * body["lambda"]
    assert not body["chain"]["holds"]
    assert body["condition"]["holds"] is None
    assert body["verdict"].startswith("inconclusive")
    assert body["reason"] == "exterior_above_aubin"


def test_constants_hyperbolic_default_r_max(tmp_path, capsys):
    # With the default r_max = 1e8 the conformal length int_2^1e8 dr/sinh
    # = 0.27 spans eight decades in r; the report is the inconclusive
    # verdict, not a stage error.  sinh overflows past r ~ 710, which
    # must not surface as RuntimeWarnings.
    config = tmp_path / "hyperbolic.json"
    config.write_text(json.dumps({"profile": {"name": "hyperbolic"}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(capsys, "constants", "--config", str(config))
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    body = json.loads(out)["report"]
    assert all(row["r_out"] == 1e8 for row in body["exterior"])
    assert body["chain"]["scalar_bound_divergent"]
    assert body["reason"] == "exterior_above_aubin"


def test_exhaust_report_contents(exhaust_out):
    report = json.loads((exhaust_out / "exhaust.json").read_text())
    body = report["report"]
    assert body["trace_file"] == "trace.json"
    assert [row["j"] for row in body["y_table"]] == [1.0, 2.0, 4.0]
    assert body["verdict"]["kind"] == "concentrates"
    assert body["subsolution"]["passed"]
    assert body["boundary_bound"]["passed"]
    assert (exhaust_out / "trace.json").exists()
    assert (exhaust_out / "field_j4.csv").exists()


def test_decay_command(flat_config, exhaust_out, capsys):
    code, out = _run(capsys, "decay", "--config", flat_config,
                     "--trace", str(exhaust_out / "trace.json"))
    assert code == 0
    body = json.loads(out)["report"]
    assert body["volume_growth"]["rho"] == pytest.approx(0.0, abs=1e-4)
    # flat space: Y_est ~ Y_inf, the strict hypothesis Y < Y_inf fails,
    # reported as a verdict with exit code 0.
    assert body["verdict"].startswith("hypothesis fails")


def test_decay_exterior_above_aubin_inconclusive(tmp_path, capsys):
    # f = r + r^3 grows polynomially but int_2^inf dr/f is finite (the
    # outer half of [2, 1000] adds 1.5e-6 to L = 0.11), so the radial
    # exterior estimate is stabilized far above Lambda(3): no verdict.
    table = tmp_path / "cubic.csv"
    r = np.linspace(0.0, 1000.0, 20001)
    table.write_text("r,f\n" + "".join(f"{t},{t + t**3}\n" for t in r))
    config = tmp_path / "cubic.json"
    config.write_text(json.dumps({
        "profile": {"name": "table", "n": 3, "r_max": 1000.0,
                    "table": str(table)},
        "pipeline": {"radii": [1.0, 2.0, 4.0], "r_in": [2.0],
                     "compact_radius": 0.5},
    }))
    out = tmp_path / "exhaust"
    code, _ = _run(capsys, "exhaust", "--config", str(config),
                   "--out", str(out))
    assert code == 0
    code, out = _run(capsys, "decay", "--config", str(config),
                     "--trace", str(out / "trace.json"))
    assert code == 0
    body = json.loads(out)["report"]
    assert not body["volume_growth"]["exponential"]
    assert body["y_inf_est"] > 1.01 * 5.477904089531331
    assert body["verdict"].startswith("inconclusive")
    assert body["reason"] == "exterior_above_aubin"


def test_decay_consistent_on_short_cigar(tmp_path, capsys):
    # Cut at r_max = 18.35 the cigar's exterior quotient sits just above
    # the ball estimate (Y = 5.48164 < Y_inf = 5.48309), so the
    # hypotheses hold and decay reaches the exponent fit.
    config = tmp_path / "cigar.json"
    config.write_text(json.dumps({
        "profile": {"name": "cigar", "n": 3, "r_max": 18.35},
        "pipeline": {"radii": [2.0, 4.0, 8.0], "r_in": [2.0],
                     "compact_radius": 1.0},
    }))
    out = tmp_path / "exhaust"
    code, _ = _run(capsys, "exhaust", "--config", str(config),
                   "--out", str(out))
    assert code == 0
    code, text = _run(capsys, "decay", "--config", str(config),
                      "--trace", str(out / "trace.json"))
    assert code == 0
    body = json.loads(text)["report"]
    assert body["verdict"] == "empirical decay consistent"
    assert body["exponents"]["y"] < body["exponents"]["y_inf"]
    # the report blocks are the dataclass fields, no more and no less
    for key, cls in (("exponents", ExponentReport), ("decay_fit", DecayFit)):
        assert set(body[key]) == {f.name for f in dataclasses.fields(cls)}


def test_bubble_command(flat_config, capsys):
    code, out = _run(capsys, "bubble", "--config", flat_config,
                     "--alphas", "0.2,0.1,0.05")
    assert code == 0
    body = json.loads(out)["report"]
    quotients = [row["quotient"] for row in body["quotients"]]
    assert quotients == sorted(quotients, reverse=True)
    assert all(row["excess"] > 0 for row in body["quotients"])
    assert body["fitted_rate"] == pytest.approx(1.0, abs=0.35)


def test_blowup_command(flat_config, exhaust_out, capsys):
    code, out = _run(capsys, "blowup", "--config", flat_config,
                     "--field", str(exhaust_out / "field_j4.csv"))
    assert code == 0
    body = json.loads(out)["report"]
    assert body["m"] > 0 and body["delta"] > 0
    assert np.isfinite(body["bubble_sup_difference"])


# -- determinism (byte-identical modulo timestamp) ---------------------------


def _cold_imports(*argv) -> list:
    """Every module a fresh ``yamabe-lab`` process running argv imports,
    the lazy ones included, as -X importtime logs them."""
    src = str(Path(yamabe_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "yamabe_lab.cli", *argv],
        capture_output=True, text=True, env=env, check=True)
    return [line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


def test_cold_bubble_imports_no_scipy(configs_dir):
    # The cold bubble path needs numpy only; scipy alone would more than
    # double a fresh process's wall time.
    imported = _cold_imports("bubble", "--config",
                             str(configs_dir / "flat3.json"))
    assert "yamabe_lab.functional" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_cold_blowup_imports_no_scipy(configs_dir, exhaust_out):
    # The rescaling and the energy identity use manifold's spline, so a
    # cold blowup --field needs numpy only, as bubble does.
    imported = _cold_imports("blowup", "--config",
                             str(configs_dir / "flat3.json"),
                             "--field", str(exhaust_out / "field_j4.csv"))
    assert "yamabe_lab.blowup" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_cold_blowup_imports_no_quotients(configs_dir, exhaust_out):
    # blowup takes Lambda(n) from constants: a cold blowup --field loads
    # neither the quotient module nor the solver.
    imported = _cold_imports("blowup", "--config",
                             str(configs_dir / "flat3.json"),
                             "--field", str(exhaust_out / "field_j4.csv"))
    assert "yamabe_lab.blowup" in imported
    assert "yamabe_lab.functional" not in imported
    assert "yamabe_lab.subcritical" not in imported


def test_exhaust_rerun_byte_identical(flat_config, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a, text_a = _run(capsys, "exhaust", "--config", flat_config,
                          "--out", str(out_a))
    code_b, text_b = _run(capsys, "exhaust", "--config", flat_config,
                          "--out", str(out_b))
    assert code_a == code_b == 0
    assert _strip_ts(text_a) == _strip_ts(text_b)
    assert _strip_ts((out_a / "exhaust.json").read_text()) == \
        _strip_ts((out_b / "exhaust.json").read_text())
    # artifacts carry no timestamp at all: bytes must match exactly
    assert (out_a / "trace.json").read_bytes() == \
        (out_b / "trace.json").read_bytes()
    assert (out_a / "field_j4.csv").read_bytes() == \
        (out_b / "field_j4.csv").read_bytes()


def test_exhaust_process_matches_serial_run(configs_dir, tmp_path, capsys,
                                           monkeypatch):
    # A fresh exhaust process, which solves its largest ball in a forked
    # child, prints and writes what an in-process run that solves every
    # ball in order does; the child adds nothing to stderr.
    if not hasattr(os, "fork") or exhaustion._usable_cpus() < 2:
        pytest.skip("exhaust would not fork here")
    config = str(configs_dir / "flat3.json")
    src = str(Path(yamabe_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    forked = subprocess.run(
        [sys.executable, "-m", "yamabe_lab.cli", "exhaust", "--config",
         config, "--out", str(tmp_path / "forked")],
        capture_output=True, text=True, env=env, timeout=300)
    assert forked.returncode == 0
    monkeypatch.setattr(exhaustion, "_usable_cpus", lambda: 1)
    code = main(["exhaust", "--config", config,
                 "--out", str(tmp_path / "serial")])
    serial = capsys.readouterr()
    assert code == 0
    assert forked.stderr == serial.err == \
        "  verdict: concentrates  final residual: None\n"
    assert _strip_ts(forked.stdout) == _strip_ts(serial.out)
    for name in ("trace.json", "field_j2.csv", "field_j4.csv",
                 "field_j8.csv"):
        assert (tmp_path / "forked" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes(), name


# -- stage failures exit 1 ---------------------------------------------------


def test_bad_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"profile": {"nam": "euclidean"}}))
    code, _ = _run(capsys, "constants", "--config", str(path))
    assert code == 1


def test_missing_trace_exits_one(flat_config, capsys):
    code, _ = _run(capsys, "decay", "--config", flat_config)
    assert code == 1


def test_decay_incomplete_trace_exits_one(exhaust_out, tmp_path, capsys,
                                          flat_config):
    # A record that lacks a key is refused, not filled with a default.
    manifest = json.loads((exhaust_out / "trace.json").read_text())
    for entry in manifest["records"]:
        (tmp_path / entry["field_file"]).write_bytes(
            (exhaust_out / entry["field_file"]).read_bytes())
    del manifest["records"][-1]["q_p_witness"]
    (tmp_path / "trace.json").write_text(json.dumps(manifest))
    code = main(["decay", "--config", flat_config,
                 "--trace", str(tmp_path / "trace.json")])
    err = capsys.readouterr().err
    _one_line_error(code, err, "decay")
    assert "does not hold the fields of a trace" in err


@pytest.mark.parametrize("edit, message", [
    (lambda records: [], "exhaustion needs >= 3 radii"),
    (lambda records: records[::-1], "radii must strictly increase"),
], ids=["empty", "reversed"])
def test_decay_refuses_trace_that_is_no_exhaustion(exhaust_out, tmp_path,
                                                   capsys, flat_config, edit,
                                                   message):
    # load_trace takes run_exhaustion's rules for the radii: an empty
    # trace ended in an IndexError, a reversed one took its smallest ball
    # for j_max.
    manifest = json.loads((exhaust_out / "trace.json").read_text())
    for entry in manifest["records"]:
        (tmp_path / entry["field_file"]).write_bytes(
            (exhaust_out / entry["field_file"]).read_bytes())
    manifest["records"] = edit(manifest["records"])
    manifest["f_radii"] = [r["j"] for r in manifest["records"]]
    (tmp_path / "trace.json").write_text(json.dumps(manifest))
    code = main(["decay", "--config", flat_config,
                 "--trace", str(tmp_path / "trace.json")])
    err = capsys.readouterr().err
    _one_line_error(code, err, "decay")
    assert f"is not an exhaustion trace: {message}" in err


def test_decay_trace_of_another_profile_exits_one(configs_dir, tmp_path,
                                                  capsys):
    out = tmp_path / "flat3"
    assert main(["exhaust", "--config", str(configs_dir / "flat3.json"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["decay", "--config", str(configs_dir / "bump3.json"),
                 "--trace", str(out / "trace.json")])
    err = capsys.readouterr().err
    _one_line_error(code, err, "decay")
    assert "is for profile euclidean n = 3" in err


@pytest.mark.parametrize("made_with, config, message", [
    # The trace's r_max, and its f at the radii, record the profile params.
    ({}, {"r_max": 30.0},
     "is for r_max = 1e+08, the config for r_max = 30"),
    ({"name": "power_bump", "params": {"a": -0.5, "b": 0.25}},
     {"name": "power_bump", "params": {"a": -0.5, "b": 0.5}},
     "was made with other profile params"),
])
def test_decay_trace_of_other_params_exits_one(tmp_path, capsys, made_with,
                                               config, message):
    paths = []
    for name, profile in (("made", made_with), ("config", config)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "profile": {"name": "euclidean", "n": 3} | profile,
            "pipeline": {"radii": [1.0, 2.0, 4.0], "r_in": [1.0, 2.0],
                         "compact_radius": 0.5}}))
        paths.append(str(path))
    out = tmp_path / "exhaust"
    assert main(["exhaust", "--config", paths[0], "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["decay", "--config", paths[1],
                 "--trace", str(out / "trace.json")])
    err = capsys.readouterr().err
    _one_line_error(code, err, "decay")
    assert message in err


def test_exhaust_compact_radius_checked_before_solving(tmp_path, capsys):
    # The default compact_radius 1.0 is not below the smallest radius:
    # refused before any continuation runs, so nothing is written.
    out = tmp_path / "out"
    code = main(["exhaust", "--radii", "0.9,2,4", "--out", str(out)])
    err = capsys.readouterr().err
    _one_line_error(code, err, "exhaust")
    assert "compact radius R = 1.0 must be below min(radii)" in err
    assert not out.exists()


def test_missing_field_exits_one(flat_config, capsys):
    code, _ = _run(capsys, "blowup", "--config", flat_config)
    assert code == 1


def test_bad_radii_flag_exits_one(flat_config, capsys):
    code, _ = _run(capsys, "exhaust", "--config", flat_config,
                   "--radii", "2,banana,8")
    assert code == 1


def test_unknown_profile_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"profile": {"name": "moebius"}}))
    code, _ = _run(capsys, "constants", "--config", str(path))
    assert code == 1


# f(r) = r on [0, 1]: a table the spline accepts.
_TABLE = "r,f\n" + "".join(f"{k / 20},{k / 20}\n" for k in range(21))


@pytest.mark.parametrize("block", [
    {"profile": {"n": "3"}},
    {"grid": {"nodes_per_unit": -5}},
    # r_max = inf (JSON's 1e400) used to run the whole pipeline and die in
    # cylinder_length; non-finite floats are refused when the config loads.
    {"profile": {"r_max": float("inf")}},
    {"pipeline": {"window_frac": float("nan")}},
    # An empty r_in ran the whole exhaustion and then died in an
    # IndexError; empty alphas gave bubble an empty table and exit 0.
    {"pipeline": {"r_in": []}},
    {"pipeline": {"alphas": []}},
    # Table profiles: "table" holds the CSV text, written to a file here.
    # A short row and a header-only file ended in IndexError tracebacks,
    # an empty file in StopIteration, a non-numeric cell in a ValueError
    # that did not name the file.
    {"profile": {"name": "table", "table": "r,f\n0,0\n1\n"}},
    {"profile": {"name": "table", "table": ""}},
    {"profile": {"name": "table", "table": "r,f\n"}},
    {"profile": {"name": "table", "table": "r,f\n0,0\n0.1,x\n"}},
    # A nan or inf cell in an otherwise usable table reached scipy's
    # spline, whose error named neither the file nor the line.
    {"profile": {"name": "table",
                 "table": _TABLE.replace("0.5,0.5", "0.5,nan")}},
    {"profile": {"name": "table",
                 "table": _TABLE.replace("0.5,0.5", "0.5,inf")}},
    # Keys that became constants of the CLI (the margin and the bubble
    # cutoff) or values it computes (rho and Y of the blow-up comparison).
    {"pipeline": {"margin": 0.05}},
    {"pipeline": {"eps": 0.5}},
    {"pipeline": {"rho": 0.0}},
    {"pipeline": {"y_value": None}},
])
def test_bad_config_value_exits_one(tmp_path, capsys, block):
    table = block.get("profile", {}).get("table")
    if table is not None:
        csv_path = tmp_path / "table.csv"
        csv_path.write_text(table)
        block = {"profile": block["profile"] | {"table": str(csv_path)}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(block))
    code = main(["constants", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    if table is None:
        assert err.startswith("error [constants]: DomainError")
    else:
        assert err.startswith("error [constants]: ProfileError")
        assert str(csv_path) in err
    assert len(err.strip().splitlines()) == 1


def test_negative_eps_s_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"solver": {"eps_s": -0.1}}))
    code = main(["exhaust", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [exhaust]: DomainError")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_empty_field_csv_exits_one(flat_config, tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code = main(["blowup", "--config", flat_config, "--field", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [blowup]: DomainError")


def _one_line_error(code, err, command):
    assert code == 1
    assert err.startswith(f"error [{command}]: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("row", ["0.5,x", "nan,0.5", "0.5,nan", "0.5,inf",
                                 "0.5"])
def test_bad_field_csv_exits_one(flat_config, tmp_path, capsys, row):
    # These rows used to end in a bare ValueError (x), "field grid must be
    # uniform" (nan in r), a non-finite value error naming no file (nan
    # or inf in u), or a short-row error naming no line.
    lines = ["r,u"] + [f"{k / 32},{1 - k / 32}" for k in range(33)]
    lines[17] = row  # the r = 0.5 row, line 18 of the file
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["blowup", "--config", flat_config, "--field", str(path)])
    err = capsys.readouterr().err
    _one_line_error(code, err, "blowup")
    assert err.startswith("error [blowup]: DomainError")
    assert f"{path} line 18" in err


_R = np.linspace(0.0, 4.0, 129)


@pytest.mark.parametrize("r, u, message", [
    # A peak of 1e200 underflowed delta = m^(1 - p/2) to 0.0 and ended in
    # a ZeroDivisionError traceback; at 1e160 rho_k overflowed to inf.
    (_R, 1e200 * np.exp(-_R**2), "too tall to rescale"),
    (_R, 1e160 * np.exp(-_R**2), "too tall to rescale"),
    # Knots the spline could not take: decreasing radii and too few rows.
    (_R[::-1], np.exp(-_R**2), "need 0 <= r_lo < j"),
    (_R[:3], np.exp(-_R[:3] ** 2), "N must be >= 32"),
    # Taller than sqrt(5 / h) = 12.6, the window delta * 5 with
    # delta = m^-2 fell inside the first cell: every resample landed
    # there, and the report exited 0 with a relative defect near 1.
    (_R, 30.0 * np.exp(-_R**2), "too narrow for its grid"),
    (_R, 1e3 * np.exp(-_R**2), "too narrow for its grid"),
    (_R, 1e150 * np.exp(-_R**2), "too narrow for its grid"),
])
def test_blowup_refused_field_exits_one(flat_config, tmp_path, capsys, r, u,
                                        message):
    path = tmp_path / "field.csv"
    path.write_text("r,u\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                      for a, b in zip(r, u)))
    code = main(["blowup", "--config", flat_config, "--field", str(path)])
    err = capsys.readouterr().err
    _one_line_error(code, err, "blowup")
    assert err.startswith("error [blowup]: DomainError")
    assert message in err


@pytest.mark.parametrize("profile", [
    {"name": "euclidean", "params": {"a": 1}},
    {"name": "power_bump", "params": {"a": -0.5}},
    {"name": "power_bump", "params": {"a": "x", "b": 0.25}},
])
def test_bad_profile_params_exit_one(tmp_path, capsys, profile):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"profile": profile}))
    code = main(["bubble", "--config", str(path)])
    _one_line_error(code, capsys.readouterr().err, "bubble")


@pytest.mark.parametrize("argv", [
    ["constants", "--radii", "2,4,nan"],
    ["exhaust", "--radii", "2,4,inf"],
    ["bubble", "--alphas", "0.1,-inf"],
])
def test_non_finite_flag_exits_one(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    _one_line_error(code, err, argv[0])
    assert f"{argv[1]} values must be finite" in err


# Half the draws are well formed, so that runs reach the bubble solve too.
_FUZZ_PARAMS = st.one_of(
    st.just({}),
    st.fixed_dictionaries({"a": st.floats(-0.5, 1.0),
                           "b": st.floats(0.1, 1.0)}),
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.floats(-1.0, 2.0), st.just("x"), st.just(math.nan)),
        max_size=3))
_FUZZ_PROFILE = st.fixed_dictionaries({
    "name": st.sampled_from(["euclidean", "hyperbolic", "sphere", "cigar",
                             "power_bump", "moebius"]),
    "params": _FUZZ_PARAMS,
    "n": st.sampled_from([2, 3, 4]),
})
_FUZZ_R_MAX = st.one_of(
    st.just("1e8"), st.sampled_from(["-1", "0", "NaN", "1e400", "1e8"]))


@settings(max_examples=50, deadline=None)
@given(profile=_FUZZ_PROFILE, r_max=_FUZZ_R_MAX)
def test_profile_fuzz_ends_in_report_or_one_line_error(tmp_path_factory,
                                                      profile, r_max):
    # Any profile block either runs or fails as one stage-error line; never
    # a traceback, and never a silent run on NaN or inf inputs.
    text = json.dumps({"profile": dict(profile, r_max="@")})
    path = tmp_path_factory.mktemp("fuzz") / "profile.json"
    path.write_text(text.replace('"@"', r_max))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bubble", "--config", str(path)])
    if code == 0:
        body = json.loads(out.getvalue())["report"]
        assert all(math.isfinite(row["quotient"]) for row in body["quotients"])
    else:
        _one_line_error(code, err.getvalue(), "bubble")


# -- each command takes only the flags it reads ------------------------------


def _subparsers():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _command_source(fn):
    source = inspect.getsource(fn)
    if "_run_trace(" in source:
        source += inspect.getsource(cli._run_trace)
    return source


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_subcommand_declares_only_flags_it_reads(name):
    # A declared flag the command never reads would change the reported
    # config and hash (or nothing at all) without changing a number.
    fn, _ = cli._COMMANDS[name]
    source = _command_source(fn)
    declared = {a.dest for a in _subparsers()[name]._actions
                if a.option_strings} - {"help", "config", "out"}
    (flag,) = declared
    if flag in cli._OVERRIDES:
        # main turns it into the pipeline key of the same name
        assert f"pipeline.{flag}" in source
    else:
        assert f"args.{flag}" in source
    # and the command reads no flag it does not declare
    assert set(re.findall(r"\bargs\.(\w+)", source)) <= declared | {"out"}


@pytest.mark.parametrize("argv", [
    ["bubble", "--radii", "1,2,3"],
    ["constants", "--field", "f.csv"],
    ["constants", "--trace", "x"],
    ["decay", "--alphas", "0.1"],
    ["exhaust", "--alphas", "0.1"],
    ["blowup", "--radii", "2,4,8"],
])
def test_flag_of_another_command_rejected(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["transmogrify"])
