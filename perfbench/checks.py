"""Correctness gates on the files a certified run writes.

These are separate from certificate outcomes: a failed certificate is a
finding of the program (exit code 1), while a failed gate here means the
program's output is wrong or incomplete.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MASS_TOL = 1e-12
CSV_COLUMNS = ["certificate", "step", "lhs", "rhs", "slack", "tolerance",
               "pass"]
PER_STEP_CHECKS = ("energy_monotone", "entropy_dissipation")


@dataclass
class RunOutputs:
    """What one certified run (one execute, or one sweep row) produced."""

    rows: int = 0            # certificate rows written
    failed_rows: int = 0     # rows with pass == 0
    steps: int = 0           # converged flags read
    nonconverged: int = 0
    problems: list = field(default_factory=list)


def check_run(out: Path, n_steps: int, checks: list, exit_code: int
              ) -> RunOutputs:
    """Gate one run's trajectory.json and certificates.csv."""
    res = RunOutputs()
    if exit_code not in (0, 1):
        res.problems.append(f"exit code {exit_code}")
        return res
    try:
        _check_trajectory(out / "trajectory.json", n_steps, res)
        _check_certificates(out / "certificates.csv", n_steps, checks, res)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        res.problems.append(f"unreadable output: {exc!r}")
    return res


def _check_trajectory(path: Path, n_steps: int, res: RunOutputs):
    doc = json.loads(path.read_text())
    states = doc["states"]
    if len(states) != n_steps + 1:
        res.problems.append(f"{len(states)} states, expected {n_steps + 1}")
    lo, hi = doc["config"]["domain"]
    for n, state in enumerate(states):
        v = np.asarray(state, dtype=float)
        mass = v.sum() * (hi - lo) / v.size
        if not (np.all(np.isfinite(v)) and np.all(v >= 0.0)):
            res.problems.append(f"state {n} negative or non-finite")
        elif abs(mass - 1.0) > MASS_TOL:
            res.problems.append(f"state {n} mass {mass!r}")
    energies = doc["energies"]
    if len(energies) != n_steps + 1 or not all(map(math.isfinite, energies)):
        res.problems.append("energies missing or non-finite")
    res.steps = len(doc["converged"])
    res.nonconverged = sum(not c for c in doc["converged"])


def _check_certificates(path: Path, n_steps: int, checks: list,
                        res: RunOutputs):
    with open(path, newline="") as fh:
        version = fh.readline().strip()
        if not (version.startswith("# schema_version=")
                and version.partition("=")[2].isdigit()):
            res.problems.append(f"no schema version line: {version!r}")
        reader = csv.reader(fh)
        header = next(reader)
        if header[:len(CSV_COLUMNS)] != CSV_COLUMNS:
            res.problems.append(f"unexpected header {header}")
        rows = list(reader)
    expected = sum(n_steps if c in PER_STEP_CHECKS else 1 for c in checks)
    if len(rows) != expected:
        res.problems.append(
            f"{len(rows)} certificate rows, expected {expected}")
    res.rows = len(rows)
    res.failed_rows = sum(r[6] != "1" for r in rows)
    bad_monotone = [r[1] for r in rows
                    if r[0] == "energy_monotone" and r[6] != "1"]
    if bad_monotone:
        res.problems.append(f"energy_monotone fails at {len(bad_monotone)} "
                            f"steps, first {bad_monotone[0]}")


def check_sweep(out: Path, values: list, n_steps: int, checks: list
                ) -> list[RunOutputs]:
    """Gate a sweep: sweep.json has one row per value, each row's run too.

    The sweep's own exit code is the worst row's, so each row is judged by
    the exit code sweep.json records for it.
    """
    def failed(problem):
        return [RunOutputs(problems=[problem]) for _ in values]

    try:
        rows = json.loads((out / "sweep.json").read_text())
    except (OSError, ValueError) as exc:
        return failed(f"unreadable sweep.json: {exc!r}")
    if [r.get("tau") for r in rows] != list(values):
        return failed(f"sweep rows {rows} for {values}")
    # the CLI names each row's directory <axis>=<value:g>
    return [check_run(out / f"tau={r['tau']:g}", n_steps, checks,
                      r["exit_code"]) for r in rows]
