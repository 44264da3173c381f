"""Command-line surface: reports, determinism, exit codes."""

import json
import re
import warnings

import numpy as np
import pytest

from yamabe_lab.cli import main

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


def test_decay_exterior_above_aubin_inconclusive(exhaust_out, tmp_path,
                                                 capsys):
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
        "pipeline": {"r_in": [2.0]},
    }))
    code, out = _run(capsys, "decay", "--config", str(config),
                     "--trace", str(exhaust_out / "trace.json"))
    assert code == 0
    body = json.loads(out)["report"]
    assert not body["volume_growth"]["exponential"]
    assert body["y_inf_est"] > 1.01 * 5.477904089531331
    assert body["verdict"].startswith("inconclusive")
    assert body["reason"] == "exterior_above_aubin"


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


# -- stage failures exit 1 ---------------------------------------------------


def test_bad_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"profile": {"nam": "euclidean"}}))
    code, _ = _run(capsys, "constants", "--config", str(path))
    assert code == 1


def test_missing_trace_exits_one(flat_config, capsys):
    code, _ = _run(capsys, "decay", "--config", flat_config)
    assert code == 1


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


@pytest.mark.parametrize("block", [
    {"profile": {"n": "3"}},
    {"grid": {"nodes_per_unit": -5}},
])
def test_bad_config_value_exits_one(tmp_path, capsys, block):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(block))
    code = main(["constants", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [constants]: DomainError")
    assert len(err.strip().splitlines()) == 1


def test_empty_field_csv_exits_one(flat_config, tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code = main(["blowup", "--config", flat_config, "--field", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [blowup]: DomainError")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["transmogrify"])
