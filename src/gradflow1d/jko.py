"""Minimizing-movement (JKO) time stepping in monotone-map coordinates.

Each step minimizes W2^2/(2 tau) + Phi over monotone node positions; the
transport term is exactly quadratic in this parametrization and mass /
nonnegativity are automatic.  The inner solver is a damped banded Newton
method with an endpoint active set, on the exact pentadiagonal Hessian
assembled from one local interface kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .transport import (ConfigurationError, GridDensity, TransportMap,
                        boltzmann_entropy, density_from_map, map_from_density,
                        w2sq_between_maps, wasserstein2_maps)
from .lagrangian import MobilitySpec

BW = 2  # Hessian bandwidth of the staggered map-coordinate energies


@dataclass
class JkoConfig:
    tau: float
    n_steps: int
    k: int = 256
    m: int = 256
    inner_max_iter: int = 60
    gtol: float = 1e-11

    def __post_init__(self):
        if self.tau <= 0 or self.k < 8 or self.n_steps < 0:
            raise ConfigurationError("invalid scheme configuration")


@dataclass
class JkoTrajectory:
    """Piecewise-constant discrete solution u_tau(t) = u^n for n = ceil(t/tau)."""

    tau: float
    times: np.ndarray
    states: list
    energies: np.ndarray
    step_distances: np.ndarray
    entropies: np.ndarray
    maps: list
    converged: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    def state_at(self, t: float) -> GridDensity:
        n = min(int(np.ceil(t / self.tau - 1e-12)), self.n_steps)
        return self.states[max(n, 0)]

    def map_at(self, t: float) -> TransportMap:
        n = min(int(np.ceil(t / self.tau - 1e-12)), self.n_steps)
        return self.maps[max(n, 0)]


# --- map-coordinate energies ----------------------------------------------

class MobilityMapEnergy:
    """1/2 int |(f o u)'|^2 in map coordinates (thin film: f = identity).

    Cell densities are u_i = dm / dX_i.  The energy is a sum of local
    interface terms T(a, b) = (W(b) - W(a))^2 / (a + b) over consecutive cell
    widths a = dX_i, b = dX_{i+1}, with W(t) = f(dm / t): the staggered
    difference quotient of w = f(u) over the control volume (a + b)/2; the two
    wall nodes carry p = 0 (the Neumann closure).  The gradient and the exact
    banded Hessian in the nodes are assembled from the derivatives of T.
    """

    def __init__(self, f: MobilitySpec):
        self.f = f

    def _interfaces(self, x):
        """Cell widths t, densities u, W'(t), and per interface
        d = W(b) - W(a), s = a + b."""
        dx = np.diff(x)
        u = 1.0 / ((len(x) - 1) * dx)
        w1 = -self.f.f1(u) * u / dx  # W'(t) = -f'(u) dm / t^2
        return dx, u, w1, np.diff(self.f.f(u)), dx[:-1] + dx[1:]

    def value_and_grad(self, x):
        dx, u, w1, d, s = self._interfaces(x)
        r = d / s
        # T_a = -r (2 W'(a) + r) and T_b = r (2 W'(b) - r)
        g_dx = np.zeros_like(dx)
        g_dx[:-1] -= r * (2 * w1[:-1] + r)
        g_dx[1:] += r * (2 * w1[1:] - r)
        gx = np.zeros_like(x)
        gx[1:] += g_dx
        gx[:-1] -= g_dx
        return float(np.sum(d * r)), gx

    def hessian_banded(self, x):
        """Exact Hessian in the nodes, in (BW, BW) banded storage.

        With r = d/s, A = W'(a) + r and B = W'(b) - r, each interface adds the
        2x2 block (2/s) [[A^2 - d W''(a), -A B], [-A B, B^2 + d W''(b)]] to
        the tridiagonal Hessian in the cell widths; the node Hessian is
        D^T H D with D the difference matrix dX = D x.
        """
        dx, u, w1, d, s = self._interfaces(x)
        # W''(t) = f''(u) dm^2 / t^4 + 2 f'(u) dm / t^3
        w2 = (self.f.f2(u) * u + 2 * self.f.f1(u)) * u / dx ** 2
        r = d / s
        a, b = w1[:-1] + r, w1[1:] - r
        off = -2 * a * b / s
        diag = np.zeros_like(dx)
        diag[:-1] += 2 * (a * a - d * w2[:-1]) / s
        diag[1:] += 2 * (b * b + d * w2[1:]) / s
        o = np.concatenate(([0.0], off, [0.0]))  # o[j]: cells j-1, j
        H = np.zeros((2 * BW + 1, len(x)))
        H[BW, :-1] += diag
        H[BW, 1:] += diag
        H[BW] -= 2 * o
        H[BW - 1, 1:] = H[BW + 1, :-1] = o[:-1] + o[1:] - diag
        H[BW - 2, 2:] = H[BW + 2, :-2] = -off
        return H


class ThinFilmMapEnergy(MobilityMapEnergy):
    def __init__(self):
        super().__init__(MobilitySpec.identity())


# --- inner solver ---------------------------------------------------------

class _Objective:
    def __init__(self, energy: MobilityMapEnergy, x_prev: np.ndarray,
                 tau: float):
        self.energy = energy
        self.x_prev = x_prev
        self.tau = tau

    def __call__(self, x):
        phi, gphi = self.energy.value_and_grad(x)
        d = x - self.x_prev
        dm = 1.0 / (len(x) - 1)
        q = (dm / 3.0) * np.sum(d[:-1] ** 2 + d[:-1] * d[1:] + d[1:] ** 2)
        gq = np.zeros_like(x)
        gq[:-1] += (dm / 3.0) * (2 * d[:-1] + d[1:])
        gq[1:] += (dm / 3.0) * (2 * d[1:] + d[:-1])
        return phi + q / (2 * self.tau), gphi + gq / (2 * self.tau)

    def hessian_banded(self, x):
        """Energy Hessian plus the constant P1 mass matrix of the transport
        term, dm/(6 tau) tridiag(1, 4, 1) with 2 on the two wall rows."""
        H = self.energy.hessian_banded(x)
        c = 1.0 / (6.0 * (len(x) - 1) * self.tau)
        H[BW] += 4 * c
        H[BW, [0, -1]] -= 2 * c
        H[BW - 1, 1:] += c
        H[BW + 1, :-1] += c
        return H


def _g_free(g, x, lo, hi):
    gf = g.copy()
    if x[0] <= lo + 1e-14 and gf[0] > 0:
        gf[0] = 0.0
    if x[-1] >= hi - 1e-14 and gf[-1] < 0:
        gf[-1] = 0.0
    return gf


def jko_step(x_prev: np.ndarray, energy: MobilityMapEnergy, tau: float,
             lo: float, hi: float, gap: float,
             max_iter: int = 60, gtol: float = 1e-11,
             ftol: float = 1e-15) -> tuple[np.ndarray, float, bool]:
    """One minimizing-movement step from the previous map's node positions.

    Damped Newton on the penalized objective with the exact banded Hessian
    of the local interface kernel, Levenberg regularization when a step is
    rejected, an active set pinning wall nodes, and Armijo backtracking under
    clipping.  Returns (positions, objective value, converged flag); descent
    from the starting point is guaranteed, so the per-step energy estimates
    hold regardless of the flag.
    """
    obj = _Objective(energy, x_prev, tau)
    x = x_prev.copy()
    f, g = obj(x)
    gref = max(np.linalg.norm(g), 1e-30)
    lam = 0.0
    n = len(x)
    converged = np.linalg.norm(_g_free(g, x, lo, hi)) <= gtol
    for _ in range(max_iter if not converged else 0):
        H = obj.hessian_banded(x)
        moved = False
        for _trial in range(30):
            fixed = np.zeros(n, bool)
            p = None
            for _resolve in range(3):
                Hd = H.copy()
                Hd[BW] = H[BW] + lam
                rhs = -g.copy()
                for j in np.nonzero(fixed)[0]:
                    l0, l1 = max(0, j - BW), min(n, j + BW + 1)
                    idx = np.arange(l0, l1)
                    Hd[BW + j - idx, idx] = 0.0
                    Hd[BW + idx - j, np.full(l1 - l0, j)] = 0.0
                    Hd[BW, j] = 1.0
                    rhs[j] = 0.0
                try:
                    p = solve_banded((BW, BW), Hd, rhs)
                except Exception:
                    p = None
                if p is None:
                    break
                newfix = False
                if x[0] + p[0] < lo - 1e-15 and not fixed[0]:
                    fixed[0] = True
                    newfix = True
                if x[-1] + p[-1] > hi + 1e-15 and not fixed[-1]:
                    fixed[-1] = True
                    newfix = True
                if not newfix:
                    break
            if p is not None and p @ g < -1e-30:
                alpha = 1.0
                for _ in range(40):
                    xn = np.clip(x + alpha * p, lo, hi)
                    if np.all(np.diff(xn) > gap):
                        fn, gn = obj(xn)
                        if fn <= f + 1e-4 * alpha * (p @ g) or (fn < f and alpha < 1e-6):
                            moved = True
                            break
                    alpha *= 0.5
                if moved:
                    break
            lam = 1e-3 * np.abs(H[BW]).max() if lam == 0 else 10 * lam
        if not moved:
            break
        df = f - fn
        x, f, g = xn, fn, gn
        lam *= 0.1
        if (np.linalg.norm(_g_free(g, x, lo, hi)) < gtol * gref
                or df < ftol * max(abs(f), 1e-30)):
            converged = True
            break
    if not converged:
        # stalled in rounding noise near equilibrium: x is still stationary
        # to working precision if each free gradient component is within
        # what moving the nodes by one ulp of the domain scale changes it by
        ulp = np.spacing(max(abs(lo), abs(hi)))
        row = np.abs(obj.hessian_banded(x)).sum(axis=0)
        converged = bool(np.all(np.abs(_g_free(g, x, lo, hi)) <= ulp * row))
    return x, f, converged


def penalized_objective(candidate: TransportMap, v_prev: GridDensity,
                        tau: float, energy: MobilityMapEnergy) -> float:
    """(1/2 tau) W2^2(candidate#, v_prev) + Phi(candidate#), exactly in the
    map parametrization at matched mass levels."""
    x_prev = map_from_density(v_prev, candidate.k).positions
    q = w2sq_between_maps(candidate.positions, x_prev)
    return q / (2 * tau) + energy.value_and_grad(candidate.positions)[0]


# --- trajectories ---------------------------------------------------------

def run(u0: GridDensity, energy: MobilityMapEnergy, cfg: JkoConfig,
        corrupt_steps: tuple = ()) -> JkoTrajectory:
    """Iterate the scheme n_steps times from u0.

    states[0] is the supplied initial datum verbatim; later states are the
    pushforwards of the minimizing maps.  Energies are evaluated in map
    coordinates (the coordinates actually minimized), so monotonicity is a
    property of the optimization, not of resampling.  A step listed in
    corrupt_steps copies the previous state instead of minimizing — a
    negative control that breaks the dissipation certificates downstream.
    """
    dom = u0.domain
    x = map_from_density(u0, cfg.k).positions
    e0, _ = energy.value_and_grad(x)
    traj = JkoTrajectory(
        tau=cfg.tau,
        times=np.arange(cfg.n_steps + 1) * cfg.tau,
        states=[u0],
        energies=np.empty(cfg.n_steps + 1),
        step_distances=np.empty(cfg.n_steps),
        entropies=np.empty(cfg.n_steps + 1),
        maps=[TransportMap(dom, x.copy())],
        converged=np.ones(cfg.n_steps, dtype=bool),
    )
    traj.energies[0] = e0
    traj.entropies[0] = boltzmann_entropy(u0)
    for nstep in range(1, cfg.n_steps + 1):
        if nstep in corrupt_steps:
            xn, conv = x.copy(), True
        else:
            xn, _, conv = jko_step(x, energy, cfg.tau, dom.lo, dom.hi, dom.gap,
                                   cfg.inner_max_iter, cfg.gtol)
        xmap = TransportMap(dom, xn.copy())
        state = density_from_map(xmap, u0.m)
        traj.maps.append(xmap)
        traj.states.append(state)
        traj.energies[nstep] = energy.value_and_grad(xn)[0]
        traj.step_distances[nstep - 1] = np.sqrt(w2sq_between_maps(xn, x))
        traj.entropies[nstep] = boltzmann_entropy(state)
        traj.converged[nstep - 1] = conv
        x = xn
    return traj


def refine_study(u0: GridDensity, energy: MobilityMapEnergy, cfg: JkoConfig,
                 levels: int = 3) -> tuple[list, list]:
    """Self-convergence study: run at tau, tau/2, ..., tau/2^(levels-1) to
    the same horizon and report the sup over the coarsest time stamps of the
    exact map W2 between consecutive-level interpolants."""
    horizon = cfg.tau * cfg.n_steps
    trajectories = []
    for lev in range(levels):
        tau = cfg.tau / 2 ** lev
        c = JkoConfig(tau=tau, n_steps=cfg.n_steps * 2 ** lev, k=cfg.k,
                      m=cfg.m, inner_max_iter=cfg.inner_max_iter,
                      gtol=cfg.gtol)
        trajectories.append(run(u0, energy, c))
    stamps = np.arange(1, cfg.n_steps + 1) * cfg.tau
    stamps = stamps[stamps <= horizon + 1e-12]
    gaps = []
    for a, b in zip(trajectories[:-1], trajectories[1:]):
        gaps.append(max(wasserstein2_maps(a.map_at(t), b.map_at(t))
                        for t in stamps))
    return trajectories, gaps
