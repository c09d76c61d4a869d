"""Workload definitions and the seeded input generator.

Every program run receives exactly two files: the initial datum as a
two-column CSV (cell midpoint, density) and a config JSON that points at
it.  The datum is

    u0 ∝ 1 + sum_{j=1..4} a_j cos(j pi x / L),   a_j ~ U(-0.2, 0.2),

with the amplitudes of datum `index` set by `amplitudes`.  Odd modes are
kept on purpose: they are not symmetric about the walls, so they expose the
wall-node detachment that the even-mode acceptance data hides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_MODES = 4
AMPLITUDE = 0.2


@dataclass(frozen=True)
class Workload:
    lagrangian: str
    m: int
    k: int
    tau: float
    n_steps: int
    sweep_tau: tuple = ()  # swept tau values; empty for a single run

    def rows(self) -> int:
        """Certified runs one program run performs."""
        return max(len(self.sweep_tau), 1)


WORKLOADS = {
    # Thin film at K=1024 in the actively decaying regime: the Newton solve
    # (coloring Hessian, energy evaluations, banded solves) dominates.
    "dynamic_k1024": Workload("thin_film", m=1024, k=1024, tau=1e-5,
                              n_steps=100),
    # Thin film run toward equilibrium: near-stationary steps, 300 steps of
    # certificates (the O(n^2) Holder check) and the wall-detachment defect.
    # 300 rather than 600 steps, so that a run holds enough data for its
    # median to repeat from seed to seed.
    "relax_long": Workload("thin_film", m=128, k=64, tau=1e-4, n_steps=300),
    # A three-value tau sweep through the CLI's thread pool on the
    # mobility energy path; validation uses validate_assumption_f.
    "sweep_sqrt": Workload("sqrt_mobility", m=256, k=256, tau=1e-5,
                           n_steps=60, sweep_tau=(2e-5, 1e-5, 5e-6)),
}


def _radical_inverse(i: int, base: int) -> float:
    r, f = 0.0, 1.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def amplitudes(seed: int, index: int) -> np.ndarray:
    """Mode amplitudes a_1..a_4 of datum `index`.

    Point `index` of the Halton sequence in bases 2, 3, 5, 7, shifted by a
    uniform offset drawn from the seed (modulo 1).  Each datum is uniform on
    [-AMPLITUDE, AMPLITUDE]^4, and the first n data of a run cover that cube
    evenly, so a run's median over its data moves less from seed to seed
    than it would with independent draws.
    """
    shift = np.random.default_rng(seed).random(N_MODES)
    point = [_radical_inverse(index, b) for b in (2, 3, 5, 7)[:N_MODES]]
    return AMPLITUDE * (2.0 * ((np.asarray(point) + shift) % 1.0) - 1.0)


def datum(m: int, seed: int, index: int, length: float = 1.0):
    """Cell midpoints and unit-mass density values of datum `index`."""
    a = amplitudes(seed, index)
    x = (np.arange(m) + 0.5) * length / m
    j = np.arange(1, N_MODES + 1)[:, None]
    u = 1.0 + a @ np.cos(j * np.pi * x / length)
    return x, u / (u.sum() * length / m)


def write_inputs(workload: Workload, seed: int, index: int,
                 directory: Path) -> Path:
    """Write the datum CSV and the run config into `directory`; return the
    config path."""
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "u0.csv"
    x, u = datum(workload.m, seed, index)
    np.savetxt(csv_path, np.column_stack([x, u]), delimiter=",", fmt="%.17g")
    config = {
        "m": workload.m,
        "k": workload.k,
        "lagrangian": {"name": workload.lagrangian},
        "initial": {"name": "file", "path": str(csv_path.resolve())},
        "tau": workload.tau,
        "n_steps": workload.n_steps,
        "out": str((directory / "out").resolve()),
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path
