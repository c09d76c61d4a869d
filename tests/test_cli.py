import csv
import gzip
import io
import itertools
import json
import subprocess
import sys

import numpy as np
import orjson
import pytest

import gradflow1d
from gradflow1d import (ConfigurationError, JkoConfig, MobilityMapEnergy,
                        cli, jko, run)
from gradflow1d.cli import ALL_CHECKS, execute, load_config, main, sweep
from gradflow1d.report import CSV_HEADER, CertificateReport
from gradflow1d.jko import jko_step
from gradflow1d.diagnostics import d2

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
    assert cfg.u0.domain.lo == 0.0 and cfg.u0.domain.hi == 1.0
    assert cfg.checks == list(ALL_CHECKS)
    assert cfg.mobility.name == "identity"  # thin film


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(write_config(tmp_path, {"taus": 1e-3}))


def test_unknown_check_rejected(tmp_path, capsys):
    # a made-up name, or a check that has been deleted
    for name in ("nonsense", "holder_continuity", "apriori"):
        path = write_config(tmp_path, {"checks": ["energy_monotone", name]})
        with pytest.raises(ConfigurationError, match="unknown checks"):
            load_config(path)
        assert main(["--config", str(path)]) == 2
        assert "unknown checks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("checks", [
    "energy_monotone", ["energy_monotone", 5], {"energy_monotone": True}],
    ids=["string", "number_in_list", "object"])
def test_checks_must_be_a_list_of_names(tmp_path, capsys, checks):
    # a string was iterated by character: "unknown checks ['e', 'n', ...]"
    path = write_config(tmp_path, {"checks": checks})
    with pytest.raises(ConfigurationError,
                       match="checks must be a list of check names"):
        load_config(path)
    assert main(["--config", str(path)]) == 2
    assert "checks must be a list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_listed_twice_rejected(tmp_path, capsys):
    # a repeated name ran once, one row per step, yet the config echo
    # listed it twice
    twice = ["energy_monotone", "energy_monotone"]
    path = write_config(tmp_path, {"m": 32, "k": 32, "n_steps": 3,
                                   "checks": twice})
    assert main(["--config", str(path)]) == 2
    assert "name a check twice" in capsys.readouterr().err
    argv = ["--config", str(write_config(tmp_path, {"m": 32, "k": 32}))]
    assert main(argv + ["--check", "discrete_weak"] * 2) == 2
    assert "name a check twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def write_datum(tmp_path, m):
    x = np.linspace(0, 1, m)
    path = tmp_path / "u0.csv"
    np.savetxt(path, np.column_stack([x, 1.0 + 0.3 * np.cos(2 * np.pi * x)]),
               delimiter=",")
    return path


@pytest.mark.parametrize("extra", [
    {"tau": "fast"}, {"m": "many"}, {"domain": [0]},
    {"lagrangian": {"name": "power_mobility"}},
    {"initial": {"name": "file"}},
    {"initial": {"name": "file", "path": "absent.csv"}},
    {"initial": {"name": "file", "path": "one_column.csv"}},
    {"m": None}, {"checks": 5},
    {"lagrangian": {"name": "power_mobility", "alpha": "0.7"}},
    {"initial": {"name": "bump", "width": 0}},
    {"refine_levels": -3}, {"refine_levels": 1}, {"refine_levels": 2.5},
    # keys the named mobility or datum never reads
    {"initial": {"name": "cosine", "epsilon": 0.9}},
    {"lagrangian": {"name": "thin_film", "C": float("nan")}},
    {"initial": {"name": "uniform", "tag": 2 ** 64}},
    # Phi(u0) overflows, which `run` rejects before the first step
    {"lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": 1e160}},
    {"lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": 1e300}},
    # an integer C beyond any double: f could not be evaluated at all
    {"lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": 10 ** 400}},
    # values the run used to truncate, convert or ignore; an infinite count
    # exited 3 (runtime error)
    {"m": 64.7}, {"tau": True}, {"m": float("inf")}, {"domain": [0, 1, 5]},
    # a datum path that is not a string: open() reads an int as a file
    # descriptor, 0 being stdin
    *({"initial": {"name": "file", "path": path}}
      for path in (0, 2, 3.5, ["u0.csv"], True)),
], ids=["tau_text", "m_text", "short_domain", "power_without_alpha",
        "file_without_path", "missing_datum_file", "one_column_datum",
        "m_null", "checks_number", "alpha_text", "bump_zero_width",
        "refine_negative", "refine_one_level", "refine_fraction",
        "cosine_epsilon", "thin_film_nan_C", "uniform_64_bit_tag",
        "power_C_1e160", "power_C_1e300", "power_C_10_400", "m_fraction",
        "tau_bool", "m_infinite", "three_domain_ends", "path_stdin",
        "path_stderr", "path_float", "path_list", "path_bool"])
def test_malformed_config_is_a_configuration_error(tmp_path, extra, capsys):
    np.savetxt(tmp_path / "one_column.csv", np.ones(64))
    path = extra.get("initial", {}).get("path")
    if isinstance(path, str):
        extra = {"initial": {**extra["initial"],
                             "path": str(tmp_path / path)}}
    assert main(["--config", str(write_config(tmp_path, extra))]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if path is not None and not isinstance(path, str):
        assert "'path' must be a string" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", [0, 2, 3.5, ["u0.csv"], True])
def test_non_string_datum_path_opens_nothing(monkeypatch, path):
    def no_open(*args, **kwargs):
        raise AssertionError(f"opened {args}")

    monkeypatch.setattr("builtins.open", no_open)
    with pytest.raises(ConfigurationError, match="'path' must be a string"):
        load_config({**BASE, "initial": {"name": "file", "path": path}})


def test_compressed_datum_is_rejected(tmp_path, capsys):
    # the datum is a plain-text CSV; numpy's path opener used to decompress
    # a .gz file
    text = write_datum(tmp_path, 64).read_bytes()
    path = tmp_path / "u0.csv.gz"
    path.write_bytes(gzip.compress(text))
    assert main(["--config", str(write_config(tmp_path, {
        "initial": {"name": "file", "path": str(path)}}))]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_file_datum_does_not_import_gzip(tmp_path, child_env):
    # loadtxt given a path imports gzip for its compressed-file openers; from
    # an open file it reads the lines, and no run or sweep imports gzip
    path = write_config(tmp_path, {
        "m": 64, "k": 32, "n_steps": 2, "checks": ["energy_monotone"],
        "initial": {"name": "file", "path": str(write_datum(tmp_path, 64))}})
    code = ("import sys\n"
            "from gradflow1d.cli import execute, load_config, sweep\n"
            f"cfg = load_config({str(path)!r})\n"
            "assert 'gzip' not in sys.modules, 'load_config'\n"
            "assert execute(cfg) == 0\n"
            "assert sweep(cfg, 'tau', [1e-4, 5e-5])[1] == 0\n"
            "assert 'gzip' not in sys.modules, 'run'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr.decode()


def test_largest_finite_initial_energy_runs(tmp_path):
    # C = 1e150 keeps Phi(u0) finite (about 1.2e300), so it loads and runs;
    # the power_C_1e160 case above is rejected by the same check in `run`
    cfg = load_config(write_config(tmp_path, {
        "lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": 1e150}}))
    traj = run(cfg.u0, MobilityMapEnergy(cfg.mobility),
               JkoConfig(tau=cfg.tau, n_steps=0, k=cfg.k))
    assert np.isfinite(traj.energies[0])


def test_gradient_norm_overflow_runs(tmp_path, monkeypatch):
    # with C = 1e150 the sum of squares of the first gradient overflows; the
    # solver's norm must not, under the suite's error::RuntimeWarning filter
    steps = []

    def spy(x_prev, *args, **kwargs):
        out = jko_step(x_prev, *args, **kwargs)
        steps.append((out[1], kwargs["phi_prev"]))
        return out

    monkeypatch.setattr(jko, "jko_step", spy)
    path = write_config(tmp_path, {
        "m": 32, "k": 32, "n_steps": 2,
        "lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": 1e150}})
    assert main(["--config", str(path)]) == 0
    assert len(steps) == 2
    # Psi(x_n) <= Phi(x_{n-1}) at every step
    assert all(psi <= phi_prev for psi, phi_prev in steps)


@pytest.mark.parametrize("m, alpha, C, n_steps", itertools.product(
    (32, 64, 128), (0.6, 0.7, 0.9), (1e100, 1e150), (2, 4)))
def test_huge_constant_passes_entropy_dissipation(tmp_path, m, alpha, C,
                                                  n_steps):
    # these runs reach the uniform state in one step, where the grid left
    # side ||(f o u)''||^2 is C^2 times the rounding of the cell values
    # (1.36e275 against a right side of 1293); 22 of them failed before the
    # tolerance covered the left side's own rounding
    path = write_config(tmp_path, {
        "m": m, "k": m, "n_steps": n_steps,
        "lagrangian": {"name": "power_mobility", "alpha": alpha, "C": C}})
    assert main(["--config", str(path)]) == 0


@pytest.mark.parametrize("lagrangian", ["thin_film", "sqrt_mobility"])
def test_copied_step_fails_entropy_dissipation(tmp_path, lagrangian,
                                               copied_steps):
    # the default config over 20 steps, step 10 a copy of step 9: the
    # rounding term of the tolerance must not cover the copied step
    cfg = load_config({"n_steps": 20, "lagrangian": {"name": lagrangian},
                       "checks": ["entropy_dissipation"],
                       "out": str(tmp_path)})
    with copied_steps(10):
        assert execute(cfg) == 1
    lines = (tmp_path / "certificates.csv").read_text().splitlines()[2:]
    assert [int(row[1]) for row in csv.reader(lines) if row[-1] == "0"] == [10]


def test_sweep_row_with_non_finite_initial_energy(tmp_path):
    path = write_config(tmp_path, {
        "lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": 1e160}})
    assert main(["--config", str(path), "--sweep", "tau=1e-4"]) == 2
    rows = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [row["exit_code"] for row in rows] == [2]
    assert "initial energy is not finite" in rows[0]["error"]


def test_sweep_of_a_huge_constant_rejects_each_row(tmp_path):
    # the mobility itself is admissible, so every row loads and is rejected
    # by its run, not the whole sweep by the loader
    path = write_config(tmp_path, {
        "lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": 1e300}})
    assert main(["--config", str(path), "--sweep", "tau=1e-4,5e-5"]) == 2
    rows = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [row["exit_code"] for row in rows] == [2, 2]
    assert all("initial energy is not finite" in row["error"] for row in rows)


@pytest.mark.parametrize("lagrangian", [
    {"name": "power_mobility", "alpha": 1e-3},
    {"name": "power_mobility", "alpha": 0.5, "C": 1e-200}],
    ids=["alpha_1e-3", "C_1e-200"])
def test_admissible_mobility_runs_the_default_config(tmp_path, lagrangian):
    # both satisfy the structure assumptions, 0 < alpha < 1 and C finite
    # and positive, however close alpha is to 0 or C to the underflow
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lagrangian": lagrangian,
                                "out": str(tmp_path / "out")}))
    assert main(["--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["n_certificates"], summary["n_failed"]) == (102, 0)


@pytest.mark.parametrize("bump", [
    {"center": 5}, {"center": -0.3, "width": 0.5}, {"width": 1e9}],
    ids=["right_of_domain", "left_of_domain", "flat"])
def test_bump_constant_on_the_grid_rejected(tmp_path, bump, capsys):
    # such a bump is the bare uniform background: the stationary datum
    extra = {"initial": {"name": "bump", **bump}}
    assert main(["--config", str(write_config(tmp_path, extra))]) == 2
    assert "bump is constant on the grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bump_overlapping_the_domain_accepted(tmp_path):
    # centred outside, but reaching the last cells
    cfg = load_config(write_config(
        tmp_path, {"initial": {"name": "bump", "center": 1.2, "width": 0.5}}))
    assert np.ptp(cfg.u0.values) > 0


@pytest.mark.parametrize("levels", [0, 2, 3])
def test_refine_levels_accepted(tmp_path, levels):
    cfg = load_config(write_config(tmp_path, {"refine_levels": levels}))
    assert cfg.refine_levels == levels


@pytest.mark.parametrize("extra, match", [
    ({"m": 64.7}, "m must be an integer"),
    ({"k": 64.5}, "k must be an integer"),
    ({"n_steps": 2.5}, "n_steps must be an integer"),
    ({"m": "64"}, "m must be a number"),
    ({"tau": "1e-4"}, "tau must be a number"),
    ({"tau": True}, "tau must be a number"),
    ({"m": True}, "m must be a number"),
    ({"n_steps": True}, "n_steps must be a number"),
    ({"refine_levels": False}, "refine_levels must be a number"),
    ({"domain": [0, True]}, "domain must be a number"),
    ({"domain": [False, 1]}, "domain must be a number"),
    ({"m": float("inf")}, "OverflowError"),
    ({"initial": {"name": "cosine", "k": True}}, r"initial \['k'\]"),
    ({"initial": {"name": "bump", "center": True}}, r"initial \['center'\]"),
    ({"lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": True}},
     r"lagrangian \['C'\]"),
], ids=["m_fraction", "k_fraction", "n_steps_fraction", "m_text",
        "tau_text", "tau_bool", "m_bool", "n_steps_bool", "refine_bool",
        "domain_hi_bool", "domain_lo_bool", "m_infinite", "cosine_k_bool",
        "bump_center_bool", "power_C_bool"])
def test_load_config_rejects_what_the_run_would_coerce(extra, match):
    # each of these used to run on a truncated or converted value that the
    # config echo in trajectory.json then disagreed with
    with pytest.raises(ConfigurationError, match=match):
        load_config({**BASE, **extra})


def test_integral_float_counts_accepted():
    cfg = load_config({**BASE, "m": 64.0, "k": 32.0, "n_steps": 4.0,
                       "refine_levels": 2.0})
    assert (cfg.u0.m, cfg.k, cfg.n_steps, cfg.refine_levels) == (64, 32, 4, 2)
    assert all(type(n) is int for n in (cfg.u0.m, cfg.k, cfg.n_steps,
                                        cfg.refine_levels))


def test_zero_steps_rejected(tmp_path):
    # a run without steps has no weak-form horizon
    path = write_config(tmp_path, {"n_steps": 0})
    with pytest.raises(ConfigurationError, match="n_steps >= 1"):
        load_config(path)
    assert main(["--config", str(write_config(tmp_path)), "--steps", "0"]) == 2
    assert not (tmp_path / "out").exists()


def test_file_datum_must_have_m_cells(tmp_path):
    path = write_config(tmp_path, {
        "initial": {"name": "file", "path": str(write_datum(tmp_path, 32))}})
    with pytest.raises(ConfigurationError, match="32 cells but m is 64"):
        load_config(path)


def _file_datum(tmp_path, values):
    m = len(values)
    x = (np.arange(m) + 0.5) / m
    path = tmp_path / "u0.csv"
    np.savetxt(path, np.column_stack([x, values]), delimiter=",")
    return {"initial": {"name": "file", "path": str(path)}, "m": m, "k": m}


def _droplet(m):
    x = (np.arange(m) + 0.5) / m
    return np.maximum(1.0 - ((x - 0.5) / 0.25) ** 2, 0.0) ** 2


@pytest.mark.parametrize("domain", [[0.0, float("inf")],
                                    [float("-inf"), 0.0]],
                         ids=["inf_right", "inf_left"])
def test_infinite_domain_rejected_at_load(tmp_path, domain, capsys):
    # its NaN mass passed the datum's mass check; the run then exited 2
    # naming a zero-density plateau (3 under error::RuntimeWarning)
    extra = {"domain": domain, "initial": {"name": "uniform"}}
    assert main(["--config", str(write_config(tmp_path, extra))]) == 2
    err = capsys.readouterr().err
    assert "configuration error: domain [" in err
    assert "finite ends and length" in err
    assert not (tmp_path / "out").exists()


def test_concave_mobility_run_passes(tmp_path):
    # a large-amplitude datum under f(z) = z^0.2, along which int f(u) grows
    cfg = load_config({
        "m": 64, "k": 64, "tau": 1e-3, "out": str(tmp_path),
        "initial": {"name": "cosine", "eps": 0.9, "k": 1},
        "lagrangian": {"name": "power_mobility", "alpha": 0.2}})
    assert execute(cfg) == 0


def _with_zeros(m, cells):
    v = 1.0 + 0.3 * np.cos(np.pi * (np.arange(m) + 0.5) / m)
    v[list(cells)] = 0.0
    return v


@pytest.mark.parametrize("values", [_droplet(64), _with_zeros(64, (20, 21))],
                         ids=["droplet", "two_adjacent_empty_cells"])
def test_zero_plateau_datum_rejected_at_load(tmp_path, values, capsys):
    # its quantile map is not resolvable: rejected before any stepping
    path = write_config(tmp_path, _file_datum(tmp_path, values))
    assert main(["--config", str(path)]) == 2
    assert "zero-density plateau" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cell", [0, 20, 63], ids=["first", "interior", "last"])
def test_one_empty_cell_datum_loads(tmp_path, cell):
    extra = _file_datum(tmp_path, _with_zeros(64, (cell,)))
    cfg = load_config(write_config(tmp_path, extra))
    assert cfg.u0.values[cell] == 0.0


def test_load_config_dict_matches_path(tmp_path):
    raw = {**BASE, "out": str(tmp_path / "out"),
           "lagrangian": {"name": "sqrt_mobility"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    overrides = {"tau": 5e-5}
    assert load_config(raw, overrides) == load_config(path, overrides)
    with pytest.raises(ConfigurationError):  # validated as eagerly
        load_config({**raw, "lagrangian": {"name": "power_mobility",
                                           "alpha": 1.0}})


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


def test_elapsed_seconds_ignore_wall_clock_steps(tmp_path, monkeypatch):
    # a wall clock that steps back an hour at every reading must not show in
    # the run's elapsed time
    clock = itertools.count(2e9, -3600.0)
    monkeypatch.setattr(cli.time, "time", lambda: next(clock))
    cfg = load_config(write_config(tmp_path))
    assert execute(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert 0.0 <= summary["elapsed_seconds"] < 3600.0


def test_trajectory_json_is_the_dumps_of_its_document(tmp_path):
    cfg = load_config(write_config(tmp_path, {"checks": ["energy_monotone"]}))
    execute(cfg)
    text = (tmp_path / "out" / "trajectory.json").read_bytes()
    doc = orjson.loads(text)
    assert list(doc)[-1] == "states" and len(doc["states"]) == 9
    assert text == orjson.dumps(doc)


@pytest.mark.parametrize("rows", [2, 3])
def test_small_blocks_leave_the_outputs_byte_identical(tmp_path, monkeypatch,
                                                       rows):
    # the run's 9 states in one block, then in blocks of `rows` states (of
    # rows - 1 maps for resampling and the weak form), the last one short:
    # resampling, the entropies, both per-state certificates and the writer
    # give the same bytes
    def outputs(out):
        path = write_config(tmp_path, {"out": str(tmp_path / out)})
        code = execute(load_config(path))
        return code, [(tmp_path / out / name).read_bytes()
                      for name in ("trajectory.json", "certificates.csv")]

    default = outputs("default")
    monkeypatch.setattr(jko, "RESAMPLE_BLOCK", rows * BASE["m"])
    assert outputs("blocks") == default


def test_certificate_rows_are_written_as_csv_writer_writes_them():
    reports = [CertificateReport("energy_monotone", 1.0, 2.0),
               CertificateReport("total_square_distance", float("inf"),
                                 float("nan"), step=None),
               CertificateReport("entropy_dissipation", -0.0, 1e-05, 1e-12,
                                 step=3),
               CertificateReport("discrete_weak", 1e+16, -2.5e-300, 0.0,
                                 step=12)]
    rows = [CSV_HEADER, *(rep.row() for rep in reports)]
    assert reports[-1].slack < 0
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    assert cli._csv_text(rows) == buf.getvalue()


def same_bits(parsed, arr):
    """The parsed JSON array holds exactly the values of `arr`, the sign of
    zero included."""
    parsed = np.asarray(parsed, dtype=arr.dtype)
    return parsed.shape == arr.shape and parsed.tobytes() == arr.tobytes()


def test_trajectory_json_round_trips_the_run(tmp_path, monkeypatch):
    # a swept value that is a numpy scalar reaches the config echo
    runs = []

    def recording_run(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    cfg = load_config(write_config(tmp_path, {"checks": ["energy_monotone"]}))
    rows, code = sweep(cfg, "tau", [np.float64(5e-5)])
    assert code == 0 and rows[0]["exit_code"] == 0
    (traj,) = runs
    doc = json.loads((tmp_path / "out" / "tau=5e-05" /
                      "trajectory.json").read_text())
    assert doc["config"]["tau"] == 5e-5
    for key in ("times", "energies", "entropies", "step_distances",
                "converged"):
        assert same_bits(doc[key], getattr(traj, key)), key
    assert same_bits(doc["states"], traj.values)


# --- harder data: odd modes, large amplitude, near-vacuum -------------------

ODD_MODE = {"initial": {"name": "cosine", "eps": 0.5, "k": 3}}


@pytest.mark.parametrize("extra", [
    ODD_MODE, {**ODD_MODE, "lagrangian": {"name": "sqrt_mobility"}},
    {**ODD_MODE, "tau": 1e-2}, {**ODD_MODE, "m": 128, "k": 64},
    {**ODD_MODE, "tau": 1e-6},
    {**ODD_MODE, "lagrangian": {"name": "power_mobility", "alpha": 0.7}}],
    ids=["thin_film", "sqrt_mobility", "tau=1e-2", "m128_k64", "tau=1e-6",
         "power_0.7"])
def test_odd_mode_default_run_passes(tmp_path, extra):
    # the default run (m = k = 256, 50 steps, every check) on odd-mode data
    assert execute(load_config({**extra, "out": str(tmp_path)})) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_certificates"] == summary["n_passed"] == 102


@pytest.mark.parametrize("initial", [
    {"name": "cosine", "eps": 0.9, "k": 1}, {"name": "bump"}],
    ids=["cosine_eps0.9_k1", "bump"])
def test_hard_data_fails_only_grid_dissipation(tmp_path, initial):
    # on these data the grid certificate entropy_dissipation, which judges
    # the spline-resampled grid densities, may fail; every other certificate
    # must pass
    execute(load_config({"initial": initial, "out": str(tmp_path)}))
    lines = (tmp_path / "certificates.csv").read_text().splitlines()[2:]
    failed = {row[0] for row in csv.reader(lines) if row[-1] == "0"}
    assert failed <= {"entropy_dissipation"}


def check_entropy_dissipation_A(traj, gamma=1.0):
    """The thin-film entropy-dissipation certificate as it was computed before
    thin film ran as the identity mobility, from the Hessian bound gamma of
    the Lagrangian F = p^2/2, which is 1 (the clause for x-dependent
    Lagrangians dropped: thin film is not one)."""
    out = []
    for n in range(1, traj.n_steps + 1):
        un = gradflow1d.GridDensity(traj.grid.domain, traj.values[n])
        # the squared H2 seminorm, rounded as the reference always computed it
        h2 = np.sqrt(un.h * np.sum(d2(un.values, un.h) ** 2))
        lhs = h2 ** 2
        dent = traj.entropies[n - 1] - traj.entropies[n]
        rhs = dent / (gamma * traj.tau)
        # absolute floor: entropy differences are evaluated at rounding level
        tol = 0.1 * lhs + 1e-12 / (gamma * traj.tau)
        out.append(gradflow1d.CertificateReport(
            name="entropy_dissipation", lhs=lhs, rhs=rhs, tolerance=tol,
            step=n, context={"entropy_drop": float(dent)}))
    return out


@pytest.mark.parametrize("extra", [
    ODD_MODE, {**ODD_MODE, "tau": 1e-2}, {**ODD_MODE, "m": 128, "k": 64},
    {**ODD_MODE, "tau": 1e-6},
    {"initial": {"name": "cosine", "eps": 0.9, "k": 1}},
    {"initial": {"name": "bump"}}],
    ids=["k3", "tau=1e-2", "m128_k64", "tau=1e-6", "cosine_eps0.9_k1",
         "bump"])
def test_thin_film_certificates_match_lagrangian_reference(tmp_path, extra):
    # thin film certified as the identity mobility (delta = 1) against the
    # Lagrangian thin-film certificate, failing steps included
    cfg = load_config({**extra, "out": str(tmp_path),
                       "checks": ["entropy_dissipation"]})
    traj = run(cfg.u0, MobilityMapEnergy(cfg.mobility),
               JkoConfig(tau=cfg.tau, n_steps=cfg.n_steps, k=cfg.k))
    rows = cli._certificates(cfg, traj)
    ref = check_entropy_dissipation_A(traj)
    assert len(rows) == len(ref) == cfg.n_steps
    for new, old in zip(rows, ref):
        assert (new.name, new.step) == (old.name, old.step)
        assert new.rhs == old.rhs  # bitwise
        assert abs(new.lhs - old.lhs) <= 2 * np.spacing(old.lhs)
        assert new.passed == old.passed


@pytest.mark.parametrize("m", [32, 64, 256])
def test_stationary_datum_passes(tmp_path, m):
    # the uniform density is stationary: the weak form's bounds are 0 and
    # its residuals are rounding noise, within the check's error bound
    path = write_config(tmp_path, {"m": m, "k": m, "n_steps": 2,
                                   "initial": {"name": "uniform"}})
    assert main(["--config", str(path)]) == 0


@pytest.mark.parametrize("n_steps", [2, 4, 6, 10])
def test_short_run_passes_discrete_weak(tmp_path, n_steps):
    # one row, at the step nearest to failing, whose residual is within its
    # bound plus rounding
    cfg = load_config(write_config(tmp_path, {
        "m": 32, "k": 32, "n_steps": n_steps, "checks": ["discrete_weak"]}))
    assert execute(cfg) == 0
    lines = (tmp_path / "out" / "certificates.csv").read_text().splitlines()
    (row,) = csv.reader(lines[2:])
    assert row[0] == "discrete_weak" and 1 <= int(row[1]) <= n_steps
    assert float(row[2]) <= float(row[3]) + float(row[5]) and row[6] == "1"


@pytest.mark.parametrize("entry", ["execute", "main", "sweep"])
def test_runtime_error_prints_its_traceback(tmp_path, monkeypatch, capsys,
                                            entry):
    # execute's error boundary, reached through main and through a sweep
    # row, and main's own, reached by an error outside execute
    def fail(*args, **kwargs):
        raise FloatingPointError("injected failure")

    monkeypatch.setattr(gradflow1d.cli, "execute" if entry == "main"
                        else "run", fail)
    path = write_config(tmp_path)
    if entry == "sweep":
        rows, code = sweep(load_config(path), "tau", [1e-4])
        assert code == 3 and rows[0]["error"] == "injected failure"
    else:
        assert main(["--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "FloatingPointError: injected failure" in err
    assert err.rstrip().endswith("runtime error: injected failure")


def test_corruption_yields_failure_exit(tmp_path, copied_steps):
    cfg = load_config(write_config(tmp_path))
    with copied_steps(4):  # the middle step of 8
        assert execute(cfg) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["n_failed"] > 0


def test_mobility_run(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "lagrangian": {"name": "sqrt_mobility"}}))
    assert cfg.mobility.name == "sqrt"
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
    cfg = load_config(write_config(tmp_path, {
        "initial": {"name": "file", "path": str(write_datum(tmp_path, 64))},
        "checks": ["energy_monotone", "total_square_distance"]}))
    assert execute(cfg) == 0


def test_refinement_gaps_in_summary(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "n_steps": 4, "refine_levels": 2,
        "checks": ["energy_monotone"]}))
    assert execute(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary["refinement_gaps"]) == 1


def test_refinement_study_level_0_is_the_run(tmp_path, monkeypatch):
    # refine_study's first level has the run's tau, steps and K, so a study
    # steps no run of its own
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(jko, "run", counted)
    monkeypatch.setattr(cli, "run", counted)
    docs = []
    for levels in (0, 3):
        cfg = load_config(write_config(tmp_path, {"refine_levels": levels}),
                          {"out": str(tmp_path / str(levels))})
        calls.clear()
        assert execute(cfg) == 0
        assert len(calls) == max(levels, 1)  # one run per level
        out = tmp_path / str(levels)
        traj = orjson.loads((out / "trajectory.json").read_bytes())
        summary = json.loads((out / "summary.json").read_text())
        assert traj.pop("config")["refine_levels"] == levels
        for key in ("config", "elapsed_seconds", "refinement_gaps"):
            summary.pop(key, None)
        docs.append((traj, summary, (out / "certificates.csv").read_bytes()))
    assert docs[0] == docs[1]


# --- sweeps -----------------------------------------------------------------

def test_sweep_tau(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "checks": ["energy_monotone", "total_square_distance"]}))
    rows, code = sweep(cfg, "tau", [1e-4, 5e-5])
    assert code == 0 and len(rows) == 2
    assert all(r["exit_code"] == 0 for r in rows)
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [r["tau"] for r in doc] == [1e-4, 5e-5]


def test_sweep_row_matches_execute(tmp_path):
    path = write_config(tmp_path)
    rows, code = sweep(load_config(path), "tau", [5e-5])
    alone = load_config(path, {"tau": 5e-5, "out": str(tmp_path / "alone")})
    assert execute(alone) == code == rows[0]["exit_code"]
    for fname in ("certificates.csv", "trajectory.json"):
        assert (tmp_path / "out" / "tau=5e-05" / fname).read_bytes() == \
            (tmp_path / "alone" / fname).read_bytes()


@pytest.mark.parametrize("extra, axis", [
    ({}, "alpha"),
    ({"lagrangian": {"name": "sqrt_mobility"}}, "alpha"),
    ({"initial": {"name": "uniform"}}, "eps"),
    ({"initial": {"name": "bump"}}, "eps"),
])
def test_sweep_axis_the_run_never_reads(tmp_path, extra, axis):
    path = write_config(tmp_path, extra)
    with pytest.raises(ConfigurationError, match="not read"):
        sweep(load_config(path), axis, [0.6, 0.7])
    assert not (tmp_path / "out").exists()  # rejected before any row ran
    assert main(["--config", str(path), "--sweep", f"{axis}=0.6,0.7"]) == 2


def test_sweep_eps_on_cosine(tmp_path):
    cfg = load_config(write_config(tmp_path, {"checks": ["energy_monotone"]}))
    rows, code = sweep(cfg, "eps", [0.3, 0.5])
    assert code == 0
    assert rows[0]["final_energy"] != rows[1]["final_energy"]


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


def _fail_run_at_tau(monkeypatch, tau):
    run = cli.run

    def failing(u0, energy, jcfg, **kw):
        if jcfg.tau == tau:
            raise FloatingPointError("step blew up")
        return run(u0, energy, jcfg, **kw)

    monkeypatch.setattr(cli, "run", failing)


def test_sweep_runtime_error_row(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, {"checks": ["energy_monotone"]}))
    _fail_run_at_tau(monkeypatch, 5e-5)
    rows, code = sweep(cfg, "tau", [1e-4, 5e-5])
    assert code == 3
    assert rows[0]["exit_code"] == 0 and "final_energy" in rows[0]
    assert rows[1] == {"tau": 5e-5, "error": "step blew up", "exit_code": 3}
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert doc == rows


def test_sweep_runtime_error_ignores_stale_outputs(tmp_path, monkeypatch):
    # an earlier run left summary.json in the row's directory
    cfg = load_config(write_config(tmp_path, {"checks": ["energy_monotone"]}))
    first, _ = sweep(cfg, "tau", [5e-5])
    assert (tmp_path / "out" / "tau=5e-05" / "summary.json").exists()
    _fail_run_at_tau(monkeypatch, 5e-5)
    rows, code = sweep(cfg, "tau", [5e-5])
    assert code == 3
    assert rows == [{"tau": 5e-5, "error": "step blew up", "exit_code": 3}]
    assert first[0]["exit_code"] == 0 and "path_length" in first[0]


def test_sweep_row_numbers_match_outputs(tmp_path):
    cfg = load_config(write_config(tmp_path))
    rows, _ = sweep(cfg, "tau", [1e-4])
    out = tmp_path / "out" / "tau=0.0001"
    summary = json.loads((out / "summary.json").read_text())
    traj = json.loads((out / "trajectory.json").read_text())
    assert rows[0] == {
        "tau": 1e-4,
        "final_energy": summary["final_energy"],
        "path_length": float(np.sum(traj["step_distances"])),
        "worst_slack": min(summary["worst_slack"].values()),
        "exit_code": 1 if summary["n_failed"] else 0}


@pytest.mark.parametrize("values", [[1e-4, 1e-4], [1e-4, 1.0000001e-4]])
def test_sweep_values_sharing_a_directory(tmp_path, values):
    path = write_config(tmp_path)
    with pytest.raises(ConfigurationError, match="same output directory"):
        sweep(load_config(path), "tau", values)
    assert not (tmp_path / "out").exists()  # rejected before any row ran
    spec = "tau=" + ",".join(repr(v) for v in values)
    assert main(["--config", str(path), "--sweep", spec]) == 2


@pytest.mark.parametrize("spec", ["tau=abc", "tau=1e-4,x", "tau", "tau=",
                                  "tau=,"])
def test_main_rejects_bad_sweep_spec(tmp_path, spec, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--sweep", spec]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- entry point ------------------------------------------------------------

def test_main_exit_codes(tmp_path):
    path = write_config(tmp_path, {"checks": ["energy_monotone"]})
    assert main(["--config", str(path)]) == 0
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert main(["--config", str(path), "--tau", "-1"]) == 2


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_main_rejects_non_finite_tau(tmp_path, tau, capsys):
    path = write_config(tmp_path, {"checks": ["energy_monotone"]})
    assert main(["--config", str(path), "--tau", tau]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinite_tau_in_config_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"tau": Infinity, "out": "%s"}' % (tmp_path / "out"))
    with pytest.raises(ConfigurationError):
        load_config(path)
    assert main(["--config", str(path)]) == 2


def strict_json(path):
    """The JSON document in the file at path, which must hold no NaN or
    infinity."""
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_sweep_nan_tau_row_is_a_configuration_error(tmp_path):
    path = write_config(tmp_path, {"checks": ["energy_monotone"]})
    assert main(["--config", str(path), "--sweep", "tau=1e-4,nan,inf"]) == 2
    rows = strict_json(tmp_path / "out" / "sweep.json")
    assert rows[0]["exit_code"] == 0 and rows[0]["tau"] == 1e-4
    for row, text in zip(rows[1:], ("nan", "inf")):
        assert row["tau"] == text
        assert row["exit_code"] == 2 and "error" in row


def test_an_infinite_bound_is_written_as_strict_json(tmp_path):
    # 2 tau Phi(u_0) overflows, so total_square_distance has an infinite
    # bound and slack; summary.json and sweep.json write it as text
    path = write_config(tmp_path, {
        "m": 32, "k": 32, "n_steps": 3, "tau": 1e10,
        "lagrangian": {"name": "power_mobility", "alpha": 0.7, "C": 1e150}})
    assert main(["--config", str(path)]) == 0
    summary = strict_json(tmp_path / "out" / "summary.json")
    assert summary["worst_slack"]["total_square_distance"] == "inf"
    assert main(["--config", str(path), "--check", "total_square_distance",
                 "--sweep", "tau=1e10"]) == 0
    rows = strict_json(tmp_path / "out" / "sweep.json")
    assert rows[0]["worst_slack"] == "inf"


def test_main_check_selection(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--check", "energy_monotone",
                 "--check", "total_square_distance"]) == 0
    lines = (tmp_path / "out" / "certificates.csv").read_text().splitlines()
    names = {line.split(",")[0] for line in lines[2:]}
    assert names == {"energy_monotone", "total_square_distance"}


def test_main_check_all_overrides_the_configured_checks(tmp_path):
    path = write_config(tmp_path, {"checks": ["energy_monotone"]})
    assert main(["--config", str(path), "--check-all"]) == 0
    lines = (tmp_path / "out" / "certificates.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[2:]} == set(ALL_CHECKS)


def test_main_out_writes_into_the_given_directory(tmp_path):
    path = write_config(tmp_path, {"checks": ["energy_monotone"]})
    assert main(["--config", str(path), "--out", str(tmp_path / "given")]) == 0
    for name in ("trajectory.json", "certificates.csv", "summary.json"):
        assert (tmp_path / "given" / name).stat().st_size > 0
    assert not (tmp_path / "out").exists()


def test_main_sweep_alpha_on_power_mobility(tmp_path):
    # alpha = 1.5 leaves the power mobility's (0, 1] window: that row alone
    # is rejected, and the sweep exits with its code
    path = write_config(tmp_path, {
        "lagrangian": {"name": "power_mobility", "alpha": 0.7}})
    assert main(["--config", str(path), "--sweep", "alpha=0.5,0.8,1.5"]) == 2
    rows = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [r["alpha"] for r in rows] == [0.5, 0.8, 1.5]
    assert [r["exit_code"] for r in rows] == [0, 0, 2]
    assert "exponent" in rows[2]["error"]
    assert rows[0]["final_energy"] != rows[1]["final_energy"]


def test_main_unknown_lagrangian_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"lagrangian": {"name": "porous_medium"}})
    assert main(["--config", str(path)]) == 2
    assert "unknown lagrangian 'porous_medium'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_rejects_the_removed_apriori_check(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--check", "apriori"]) == 2
    assert "unknown checks" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_corruption_flag(tmp_path, copied_steps, capsys):
    # the negative control is a test fixture, not a command-line flag
    path = write_config(tmp_path)
    with copied_steps(4):
        assert main(["--config", str(path)]) == 1
    rejected = write_config(tmp_path, {"out": str(tmp_path / "rejected")})
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(rejected), "--inject-corruption"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inject-corruption" in \
        capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()


def test_inject_corruption_is_an_unknown_key(tmp_path, capsys):
    path = write_config(tmp_path, {"inject_corruption": True,
                                   "out": str(tmp_path / "rejected")})
    assert main(["--config", str(path)]) == 2
    assert "unknown config key 'inject_corruption'" in capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()


def test_console_entry_point(tmp_path, child_env):
    path = write_config(tmp_path, {"checks": ["energy_monotone"]})
    proc = subprocess.run(
        [sys.executable, "-m", "gradflow1d.cli", "--config", str(path)],
        capture_output=True, env=child_env)
    assert proc.returncode == 0
