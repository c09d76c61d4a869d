import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradflow1d
from gradflow1d import ConfigurationError
from gradflow1d.cli import (ALL_CHECKS, execute, load_config,
                            load_config_dict, main, sweep)

BASE = {
    "m": 64,
    "k": 64,
    "tau": 1e-4,
    "n_steps": 8,
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = {**BASE, "out": str(tmp_path / "out"), **(extra or {})}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# --- config loading ---------------------------------------------------------

def test_defaults_fill_in(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.domain.lo == 0.0 and cfg.domain.hi == 1.0
    assert cfg.checks == list(ALL_CHECKS)
    assert not cfg.is_mobility


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(write_config(tmp_path, {"taus": 1e-3}))


def test_unknown_check_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(write_config(tmp_path, {"checks": ["energy_monotone",
                                                       "nonsense"]}))


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "absent.json")


def test_inadmissible_exponent_rejected_eagerly(tmp_path):
    path = write_config(tmp_path, {
        "lagrangian": {"name": "power_mobility", "alpha": 1.0}})
    with pytest.raises(ConfigurationError):
        load_config(path)  # linear mobility fails the structure assumption


def test_bad_initial_rejected_eagerly(tmp_path):
    path = write_config(tmp_path, {"initial": {"name": "gaussianish"}})
    with pytest.raises(ConfigurationError):
        load_config(path)


# --- execution --------------------------------------------------------------

def test_execute_writes_outputs(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert execute(cfg) == 0
    out = tmp_path / "out"
    assert (out / "trajectory.json").exists()
    assert (out / "summary.json").exists()
    lines = (out / "certificates.csv").read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1].startswith("certificate,step,lhs,rhs,slack,tolerance,pass")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_failed"] == 0
    assert summary["n_certificates"] == summary["n_passed"]


def test_corruption_yields_failure_exit(tmp_path):
    cfg = load_config(write_config(tmp_path), {"inject_corruption": True})
    assert execute(cfg) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_failed"] > 0


def test_mobility_run(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "lagrangian": {"name": "sqrt_mobility"}}))
    assert cfg.is_mobility
    assert execute(cfg) == 0


def test_deterministic_outputs(tmp_path):
    for sub in ("a", "b"):
        cfg = load_config(write_config(tmp_path),
                          {"out": str(tmp_path / sub)})
        assert execute(cfg) == 0
    for fname in ("trajectory.json", "certificates.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    sa.pop("elapsed_seconds"), sb.pop("elapsed_seconds")
    assert sa == sb


def test_initial_from_csv_file(tmp_path):
    x = np.linspace(0, 1, 64)
    vals = 1.0 + 0.3 * np.cos(2 * np.pi * x)
    data = tmp_path / "u0.csv"
    np.savetxt(data, np.column_stack([x, vals]), delimiter=",")
    cfg = load_config(write_config(tmp_path, {
        "initial": {"name": "file", "path": str(data)},
        "checks": ["energy_monotone", "total_square_distance"]}))
    assert execute(cfg) == 0


def test_refinement_gaps_in_summary(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "n_steps": 4, "refine_levels": 2,
        "checks": ["energy_monotone"]}))
    assert execute(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary["refinement_gaps"]) == 1


# --- sweeps -----------------------------------------------------------------

def test_sweep_tau(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "checks": ["energy_monotone", "total_square_distance"]}))
    rows, code = sweep(cfg, "tau", [1e-4, 5e-5])
    assert code == 0 and len(rows) == 2
    assert all(r["exit_code"] == 0 for r in rows)
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [r["tau"] for r in doc] == [1e-4, 5e-5]


def test_sweep_empty_axis(tmp_path):
    cfg = load_config(write_config(tmp_path))
    rows, code = sweep(cfg, "tau", [])
    assert rows == [] and code == 0


def test_sweep_unknown_axis(tmp_path):
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(ConfigurationError):
        sweep(cfg, "mass", [1.0])


def test_sweep_records_per_row_errors(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "checks": ["energy_monotone"]}))
    rows, code = sweep(cfg, "tau", [1e-4, -1.0])
    assert code == 2
    assert rows[0]["exit_code"] == 0 and "error" in rows[1]


# --- entry point ------------------------------------------------------------

def test_main_exit_codes(tmp_path):
    path = write_config(tmp_path, {"checks": ["energy_monotone"]})
    assert main(["--config", str(path)]) == 0
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert main(["--config", str(path), "--tau", "-1"]) == 2


def test_main_check_selection(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--check", "energy_monotone",
                 "--check", "boundary_sign"]) == 0
    lines = (tmp_path / "out" / "certificates.csv").read_text().splitlines()
    names = {line.split(",")[0] for line in lines[2:]}
    assert names == {"energy_monotone", "boundary_sign"}


def test_main_corruption_flag(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--inject-corruption"]) == 1


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path, {"checks": ["energy_monotone"]})
    # the child imports the same package as the tests, installed or not
    src = str(Path(gradflow1d.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gradflow1d.cli", "--config", str(path)],
        capture_output=True, env=env)
    assert proc.returncode == 0


def test_load_config_dict_round_trip(tmp_path):
    cfg = load_config_dict({**BASE, "out": str(tmp_path / "out")})
    assert cfg.tau == BASE["tau"]
