"""Configuration-driven batch runner.

Reads a JSON config, assembles the energy and initial datum, runs the
scheme, evaluates the enabled certificates, and writes trajectory.json,
certificates.csv and summary.json into the output directory.

Exit codes: 0 success, 1 certificate failure, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import orjson

from .report import CSV_HEADER, CSV_SCHEMA_VERSION, CertificateReport
from .transport import (ConfigurationError, GridDensity, Interval,
                        reject_zero_plateau)
from .lagrangian import (MobilitySpec, dissipation_constants,
                         validate_assumption_f)
from .jko import JkoConfig, MobilityMapEnergy, run, refine_study
from . import diagnostics as dg

ALL_CHECKS = ("energy_monotone", "total_square_distance",
              "entropy_dissipation", "discrete_weak")

DEFAULTS = {
    "domain": [0.0, 1.0],
    "m": 256,
    "k": 256,
    "lagrangian": {"name": "thin_film"},
    "initial": {"name": "cosine", "eps": 0.5, "k": 2},
    "tau": 1e-4,
    "n_steps": 50,
    "refine_levels": 0,
    "checks": list(ALL_CHECKS),
    "out": "out",
}


@dataclass
class RunConfig:
    k: int
    # the energy's mobility (thin film: the identity) and the initial datum,
    # built once from `raw`, which equality compares instead
    mobility: MobilitySpec = field(compare=False)
    u0: GridDensity = field(compare=False)
    tau: float
    n_steps: int
    refine_levels: int
    checks: list
    out: Path
    raw: dict = field(default_factory=dict)


# the keys each mobility and initial datum reads besides its name
READS = {
    "lagrangian": {"thin_film": (), "sqrt_mobility": (),
                   "power_mobility": ("C", "alpha")},
    "initial": {"uniform": (), "cosine": ("eps", "k"),
                "bump": ("center", "width"), "file": ("path",)},
}
# the section whose entry reads each sweep axis; tau is read by every run
AXES = {"tau": None, "alpha": "lagrangian", "eps": "initial"}


def _number(value, name: str, count: bool = False):
    """A config value as a float, or as an int for a count; text, booleans
    and a count with a fractional part are rejected."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a number, not {value!r}")
    if count and int(value) != value:
        raise ConfigurationError(f"{name} must be an integer, not {value!r}")
    return int(value) if count else float(value)


def _mobility(lag: dict) -> MobilitySpec:
    name = lag.get("name")
    if name == "thin_film":
        return MobilitySpec.identity()
    if name == "sqrt_mobility":
        return MobilitySpec.sqrt_mobility()
    if name == "power_mobility":
        # a number, so that a huge JSON integer C is rejected here and not
        # where the run first evaluates f
        return MobilitySpec.power_mobility(_number(lag.get("C", 1.0), "C"),
                                           _number(lag["alpha"], "alpha"))
    raise ConfigurationError(f"unknown lagrangian '{name}'")


def _initial(ini: dict, domain: Interval, m: int) -> GridDensity:
    name = ini.get("name")
    if name == "uniform":
        return GridDensity.uniform(domain, m)
    if name == "cosine":
        return GridDensity.cosine(domain, m, eps=ini.get("eps", 0.5),
                                  k=ini.get("k", 2))
    if name == "bump":
        return GridDensity.bump(domain, m, center=ini.get("center"),
                                width=ini.get("width"))
    if name == "file":
        path = ini["path"]
        # open() would take an int for a file descriptor (0 is stdin)
        if not isinstance(path, str):
            raise ConfigurationError(
                f"initial datum 'path' must be a string, not {path!r}")
        # a plain-text CSV, read from the open file: given a path, loadtxt
        # goes through numpy's datasource, which imports gzip on first use
        with open(path) as fh:
            data = np.loadtxt(fh, delimiter=",")
        return GridDensity.from_samples(domain, data[:, 1])
    raise ConfigurationError(f"unknown initial datum '{name}'")


def load_config(source: str | Path | dict,
                overrides: dict | None = None) -> RunConfig:
    """Default-fill and eagerly validate a run configuration, given as the
    path of a JSON file or as an already-parsed dict, and build its mobility
    and initial datum."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read config {source}: {exc}") from exc
    merged = {**DEFAULTS, **raw, **(overrides or {})}
    for key in raw:
        if key not in DEFAULTS:
            raise ConfigurationError(f"unknown config key '{key}'")
    try:
        checks = merged["checks"]
        # a string would be read as a list of one-letter names
        if not (isinstance(checks, list)
                and all(isinstance(c, str) for c in checks)):
            raise ConfigurationError(
                f"checks must be a list of check names, not {checks!r}")
        unknown = [c for c in checks if c not in ALL_CHECKS]
        if unknown:
            raise ConfigurationError(f"unknown checks {unknown}")
        # each listed check writes its rows once
        if len(set(checks)) < len(checks):
            raise ConfigurationError(f"checks {checks} name a check twice")
        lo, hi = (_number(end, "domain") for end in merged["domain"])
        domain = Interval(lo, hi)
        m, k, n_steps = (_number(merged[key], key, count=True)
                         for key in ("m", "k", "n_steps"))
        tau = _number(merged["tau"], "tau")
        if not (0 < tau < np.inf and n_steps >= 1 and m >= 8 and k >= 8):
            raise ConfigurationError(
                "0 < tau < inf, n_steps >= 1, m >= 8, k >= 8 required")
        # 0 skips the refinement study, which needs at least two levels
        refine_levels = _number(merged["refine_levels"], "refine_levels",
                                count=True)
        if refine_levels < 0 or refine_levels == 1:
            raise ConfigurationError(
                f"refine_levels must be 0 or an integer >= 2, "
                f"not {merged['refine_levels']!r}")
        for section, reads in READS.items():
            merged[section] = dict(merged[section])
            name = merged[section].get("name")
            # an unknown name is rejected where the section is built
            unread = set(merged[section]) - {"name", *reads.get(name, ())}
            if name in reads and unread:
                raise ConfigurationError(
                    f"{section} '{name}' does not read {sorted(unread)}")
            # no number these sections read is a boolean; the datum's
            # path is text, which `_initial` checks
            flags = sorted(key for key, value in merged[section].items()
                           if isinstance(value, bool) and key != "path")
            if flags:
                raise ConfigurationError(
                    f"{section} {flags} must be numbers, not booleans")
        # eager assumption validation before any stepping.  Thin film runs
        # as the identity mobility, which is linear, not strictly concave,
        # so the concave-mobility validator does not apply to it
        f = _mobility(merged["lagrangian"])
        if merged["lagrangian"]["name"] != "thin_film":
            rep = validate_assumption_f(f, dimension=1)
            if not rep.passed:
                raise ConfigurationError(
                    "mobility fails structure assumption, clause "
                    + rep.context["worst_clause"])
        u0 = _initial(merged["initial"], domain, m)
        cfg = RunConfig(
            k=k, mobility=f, u0=u0, tau=tau, n_steps=n_steps,
            refine_levels=refine_levels, checks=list(checks),
            out=Path(merged["out"]), raw=merged)
    except ConfigurationError:
        raise
    # a malformed or wrongly typed value, an infinite count, a domain
    # without two ends, a missing key, an unreadable or one-column datum file
    except (ValueError, TypeError, OverflowError, IndexError, KeyError,
            OSError) as exc:
        raise ConfigurationError(
            f"malformed config: {type(exc).__name__}: {exc}") from exc
    if u0.m != m:  # only a file datum sets its own cell count
        raise ConfigurationError(
            f"initial datum has {u0.m} cells but m is {m}")
    reject_zero_plateau(u0)  # the run starts from u0's quantile map
    return cfg


def _certificates(cfg: RunConfig, traj) -> list[CertificateReport]:
    f, reports = cfg.mobility, []
    for name in (c for c in ALL_CHECKS if c in cfg.checks):
        if name == "energy_monotone":
            reports += dg.check_energy_monotone(traj)
        elif name == "total_square_distance":
            reports.append(dg.check_total_square_distance(traj))
        elif name == "entropy_dissipation":
            delta = dissipation_constants(f, 1)[1]
            reports += dg.check_entropy_dissipation_f(traj, f, delta)
        elif name == "discrete_weak":
            reports.append(dg.check_discrete_weak_f(traj, f))
    return reports


def _csv_text(rows) -> str:
    """rows as csv.writer writes them in its default dialect: each row's
    fields joined by commas, ending in \\r\\n.  Exact for fields that hold
    no comma, quote or line break, as certificate rows do."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in rows)


def _strict_json(doc) -> str:
    """doc as indented JSON, each NaN or infinity (which strict JSON lacks)
    written as its Python text: "nan", "inf" or "-inf"."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda c: str(float(c)))
    return json.dumps(doc, indent=2)


def _write_outputs(cfg: RunConfig, traj, reports, elapsed: float,
                   gaps=None) -> dict:
    cfg.out.mkdir(parents=True, exist_ok=True)
    traj_doc = {
        "config": {k: v for k, v in cfg.raw.items() if k != "out"},
        "times": traj.times,
        "energies": traj.energies,
        "entropies": traj.entropies,
        "step_distances": traj.step_distances,
        "converged": traj.converged,
        "states": traj.values,
    }
    # compact, floats in their shortest round-trip form
    (cfg.out / "trajectory.json").write_bytes(
        orjson.dumps(traj_doc, option=orjson.OPT_SERIALIZE_NUMPY))

    with open(cfg.out / "certificates.csv", "w", newline="") as fh:
        fh.write(f"# schema_version={CSV_SCHEMA_VERSION}\n")
        fh.write(_csv_text([CSV_HEADER, *(rep.row() for rep in reports)]))

    n_pass = int(sum(bool(r.passed) for r in reports))
    worst = {}
    for rep in reports:
        if rep.name not in worst or rep.slack < worst[rep.name]:
            worst[rep.name] = float(rep.slack)
    summary = {
        "config": traj_doc["config"],
        "n_certificates": len(reports),
        "n_passed": n_pass,
        "n_failed": len(reports) - n_pass,
        "worst_slack": worst,
        "final_energy": float(traj.energies[-1]),
        "elapsed_seconds": elapsed,
    }
    if gaps is not None:
        summary["refinement_gaps"] = [float(g) for g in gaps]
    (cfg.out / "summary.json").write_text(_strict_json(summary))
    return summary


def execute(cfg: RunConfig, row: dict | None = None) -> int:
    """Run the scheme and certificate suite; returns the process exit code.

    A sweep passes its `row`, which receives the run's final energy, path
    length and worst slack, or the error text of a runtime error.
    """
    t0 = time.perf_counter()
    try:
        energy = MobilityMapEnergy(cfg.mobility)
        jcfg = JkoConfig(tau=cfg.tau, n_steps=cfg.n_steps, k=cfg.k)
        gaps = None
        if cfg.refine_levels > 1:
            trajs, gaps = refine_study(cfg.u0, energy, jcfg,
                                       levels=cfg.refine_levels)
            traj = trajs[0]  # the study's level 0 is this run, bitwise
        else:
            traj = run(cfg.u0, energy, jcfg)
        reports = _certificates(cfg, traj)
        summary = _write_outputs(cfg, traj, reports,
                                 time.perf_counter() - t0, gaps)
    except ConfigurationError:
        raise
    except Exception as exc:
        traceback.print_exc()
        print(f"runtime error: {exc}", file=sys.stderr)
        if row is not None:
            row["error"] = str(exc)
        return 3
    if row is not None:
        row.update(final_energy=summary["final_energy"],
                   path_length=float(np.sum(traj.step_distances)),
                   worst_slack=min(summary["worst_slack"].values(),
                                   default=0.0))
    return 0 if summary["n_failed"] == 0 else 1


def sweep(cfg: RunConfig, axis: str, values: list) -> tuple[list, int]:
    """One run per value of the swept parameter, in the order given.

    Each row loads and validates its own config and runs it through
    `execute`, into the directory <axis>=<value:g>; a row whose config is
    rejected records the error and exit code 2, one that fails at run time
    the error and exit code 3.
    """
    if axis not in AXES:
        raise ConfigurationError(f"unknown sweep axis '{axis}'")
    # an axis the configured run never reads would give identical rows
    section = AXES[axis]
    entry = section and cfg.raw[section]["name"]
    if section and axis not in READS[section][entry]:
        raise ConfigurationError(
            f"sweep axis '{axis}' is not read by {section} '{entry}'")
    dirs = [f"{axis}={val:g}" for val in values]
    if len(set(dirs)) < len(dirs):
        raise ConfigurationError(
            f"sweep values {values} name the same output directory twice")

    rows = []
    for val, name in zip(values, dirs):
        raw = dict(cfg.raw)
        raw["out"] = str(cfg.out / name)
        if section is None:
            raw[axis] = val
        else:
            raw[section] = {**raw[section], axis: val}
        row = {axis: val}
        try:
            sub = load_config(raw)
            row["exit_code"] = execute(sub, row)
        except ConfigurationError as exc:
            row.update(error=str(exc), exit_code=2)
        rows.append(row)

    worst = max((r["exit_code"] for r in rows), default=0)
    cfg.out.mkdir(parents=True, exist_ok=True)
    (cfg.out / "sweep.json").write_text(_strict_json(rows))
    return rows, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gradflow1d",
        description="1D Wasserstein gradient-flow solver and certificate suite")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out")
    ap.add_argument("--tau", type=float)
    ap.add_argument("--steps", type=int)
    ap.add_argument("--check-all", action="store_true")
    ap.add_argument("--check", action="append", default=None, metavar="NAME")
    ap.add_argument("--sweep", metavar="AXIS=V1,V2,...")
    args = ap.parse_args(argv)

    overrides = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.steps is not None:
        overrides["n_steps"] = args.steps
    if args.check_all:
        overrides["checks"] = list(ALL_CHECKS)
    elif args.check:
        overrides["checks"] = args.check

    try:
        cfg = load_config(args.config, overrides)
        if args.sweep:
            axis, _, vals = args.sweep.partition("=")
            try:
                values = [float(v) for v in vals.split(",") if v]
            except ValueError as exc:
                raise ConfigurationError(
                    f"--sweep {args.sweep}: {exc}") from None
            if not values:
                raise ConfigurationError(
                    f"--sweep {args.sweep}: no values (AXIS=V1,V2,...)")
            _, code = sweep(cfg, axis, values)
            return code
        return execute(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
