"""Minimizing-movement (JKO) time stepping in monotone-map coordinates.

Each step minimizes W2^2/(2 tau) + Phi over monotone node positions; the
transport term is exactly quadratic in this parametrization and mass /
nonnegativity are automatic.  The domain is fixed, so the two end nodes stay
on the walls and the unknowns are the interior nodes.  The inner solver is a
damped banded Newton method on the interior block of the exact pentadiagonal
Hessian, assembled from one local interface kernel.  Its line-search trials
evaluate the objective value only; each accepted point gets one gradient and
one Hessian, which share that point's interface arrays, and each banded
system goes directly to LAPACK gbsv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .transport import (ConfigurationError, GridDensity, TransportMap,
                        boltzmann_entropy, densities_from_maps,
                        map_from_density, w2sq_between_maps,
                        wasserstein2_maps)
from .lagrangian import MobilitySpec

BW = 2  # Hessian bandwidth of the staggered map-coordinate energies
# grid-edge entries per batched pushforward in `run`: bounds the temporaries
# of resampling a whole trajectory
RESAMPLE_BLOCK = 4096


@dataclass
class JkoConfig:
    tau: float
    n_steps: int
    k: int = 256
    inner_max_iter: int = 60
    gtol: float = 1e-11

    def __post_init__(self):
        if not 0 < self.tau < np.inf or self.k < 8 or self.n_steps < 0:
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
    banded Hessian in the nodes are assembled from the derivatives of T; both
    accept the interface arrays of `_interfaces(x)`, so a Newton iteration
    computes them once for its gradient and Hessian.
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

    def value(self, x, dx=None):
        """The energy alone: the value of `value_and_grad`, without W'.
        dx, if given, is np.diff(x)."""
        dx = np.diff(x) if dx is None else dx
        d = np.diff(self.f.f(1.0 / ((len(x) - 1) * dx)))
        return float(np.sum(d * (d / (dx[:-1] + dx[1:]))))

    def value_and_grad(self, x, iface=None):
        dx, u, w1, d, s = self._interfaces(x) if iface is None else iface
        r = d / s
        # T_a = -r (2 W'(a) + r) and T_b = r (2 W'(b) - r)
        g_dx = np.zeros_like(dx)
        g_dx[:-1] -= r * (2 * w1[:-1] + r)
        g_dx[1:] += r * (2 * w1[1:] - r)
        gx = np.zeros_like(x)
        gx[1:] += g_dx
        gx[:-1] -= g_dx
        return float(np.sum(d * r)), gx

    def hessian_banded(self, x, iface=None):
        """Exact Hessian in the nodes, in (BW, BW) banded storage.

        With r = d/s, A = W'(a) + r and B = W'(b) - r, each interface adds the
        2x2 block (2/s) [[A^2 - d W''(a), -A B], [-A B, B^2 + d W''(b)]] to
        the tridiagonal Hessian in the cell widths; the node Hessian is
        D^T H D with D the difference matrix dX = D x.
        """
        dx, u, w1, d, s = self._interfaces(x) if iface is None else iface
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
    """Phi(x) + W2^2(x#, x_prev#)/(2 tau), the transport term exactly
    quadratic in the nodes."""

    def __init__(self, energy: MobilityMapEnergy, x_prev: np.ndarray,
                 tau: float):
        self.energy = energy
        self.x_prev = x_prev
        self.tau = tau

    def _transport(self, x):
        """Node displacement d, mass per cell dm and W2^2(x#, x_prev#)."""
        d = x - self.x_prev
        dm = 1.0 / (len(x) - 1)
        q = (dm / 3.0) * np.sum(d[:-1] ** 2 + d[:-1] * d[1:] + d[1:] ** 2)
        return d, dm, q

    def value(self, x, dx=None):
        return (self.energy.value(x, dx)
                + self._transport(x)[2] / (2 * self.tau))

    def __call__(self, x, iface=None):
        phi, gphi = self.energy.value_and_grad(x, iface)
        d, dm, q = self._transport(x)
        gq = np.zeros_like(x)
        gq[:-1] += (dm / 3.0) * (2 * d[:-1] + d[1:])
        gq[1:] += (dm / 3.0) * (2 * d[1:] + d[:-1])
        return phi + q / (2 * self.tau), gphi + gq / (2 * self.tau)

    def hessian_banded(self, x, iface=None):
        """Energy Hessian plus the constant P1 mass matrix of the transport
        term, dm/(6 tau) tridiag(1, 4, 1); exact in the interior rows, the
        only ones the solver reads (a wall row's diagonal would take 2)."""
        H = self.energy.hessian_banded(x, iface)
        c = 1.0 / (6.0 * (len(x) - 1) * self.tau)
        H[BW] += 4 * c
        H[BW - 1, 1:] += c
        H[BW + 1, :-1] += c
        return H


# LAPACK's banded solver takes the band with BW fill-in rows above it:
# entry (i, j) of the matrix sits at ab[2 BW + i - j, j].
_gbsv, = get_lapack_funcs(("gbsv",), (np.zeros(1),))


def _newton_direction(ab, H, lam, g):
    """Solve (H + lam I) p = -g on the interior nodes, whose block of the
    node Hessian H is columns 1:-1 of its band storage (LAPACK ignores the
    corners outside the block).  Overwrites the (3 BW + 1, n - 2) work array
    ab; None where the system has a non-finite entry or is singular."""
    ab[:BW] = 0.0
    ab[BW:] = H[:, 1:-1]
    ab[2 * BW] += lam
    rhs = -g
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        return None
    _, _, p, info = _gbsv(BW, BW, ab, rhs, overwrite_ab=True, overwrite_b=True)
    return p if info == 0 else None


def jko_step(x_prev: np.ndarray, energy: MobilityMapEnergy, tau: float,
             gap: float, max_iter: int = 60, gtol: float = 1e-11,
             ftol: float = 1e-15) -> tuple[np.ndarray, float, bool]:
    """One minimizing-movement step from the previous map's node positions.

    The end nodes x_prev[0] and x_prev[-1] are the fixed walls; the interior
    nodes are the unknowns.  Damped Newton on the penalized objective with
    the interior block of the exact banded Hessian of the local interface
    kernel, Levenberg regularization when a step is rejected, and Armijo
    backtracking that keeps every cell wider than gap.  Line-search trials
    evaluate the objective value only, from the cell widths of their
    feasibility check; the gradient is evaluated once per accepted point,
    and the next Hessian reuses that point's interface arrays.  Each banded
    system goes straight to LAPACK gbsv in one work array.  Returns
    (positions, objective value, converged flag); descent from the starting
    point is guaranteed, so the per-step energy estimates hold regardless of
    the flag.
    """
    obj = _Objective(energy, x_prev, tau)
    x = x_prev.copy()
    iface = energy._interfaces(x)
    f, g = obj(x, iface)
    g = g[1:-1]
    gref = max(np.linalg.norm(g), 1e-30)
    lam = 0.0
    ab = np.empty((3 * BW + 1, len(x) - 2))
    converged = np.linalg.norm(g) <= gtol
    for _ in range(max_iter if not converged else 0):
        H = obj.hessian_banded(x, iface)
        moved = False
        for _trial in range(30):
            p = _newton_direction(ab, H, lam, g)
            if p is not None and (slope := p @ g) < -1e-30:
                alpha = 1.0
                for _ in range(40):
                    xn = x.copy()
                    xn[1:-1] += alpha * p
                    dxn = np.diff(xn)
                    if np.all(dxn > gap):
                        fn = obj.value(xn, dxn)
                        if fn <= f + 1e-4 * alpha * slope or (fn < f and alpha < 1e-6):
                            moved = True
                            break
                    alpha *= 0.5
                if moved:
                    break
            lam = 1e-3 * np.abs(H[BW, 1:-1]).max() if lam == 0 else 10 * lam
        if not moved:
            break
        df = f - fn
        iface = energy._interfaces(xn)
        x, f, g = xn, fn, obj(xn, iface)[1][1:-1]
        lam *= 0.1
        if np.linalg.norm(g) < gtol * gref or df < ftol * max(abs(f), 1e-30):
            converged = True
            break
    if not converged:
        # stalled in rounding noise near equilibrium: x is still stationary
        # to working precision if each gradient component is within what
        # moving the nodes by one ulp of the domain scale changes it by
        ulp = np.spacing(max(abs(x[0]), abs(x[-1])))
        row = np.abs(obj.hessian_banded(x, iface)[:, 1:-1]).sum(axis=0)
        converged = bool(np.all(np.abs(g) <= ulp * row))
    return x, f, converged


# --- trajectories ---------------------------------------------------------

def run(u0: GridDensity, energy: MobilityMapEnergy, cfg: JkoConfig,
        corrupt_steps: tuple = ()) -> JkoTrajectory:
    """Iterate the scheme n_steps times from u0.

    The loop only steps, keeping the maps, their energies and the step
    distances.  Energies are evaluated in map coordinates (the coordinates
    actually minimized), so monotonicity is a property of the optimization,
    not of resampling.  The grid states are a view of the maps: after the
    loop they are built as pushforwards on u0's grid, in batches of about
    RESAMPLE_BLOCK grid edges, and the entropies from them; states[0] is the
    supplied initial datum verbatim.  A step listed in corrupt_steps copies
    the previous state instead of minimizing — a negative control that
    breaks the dissipation certificates downstream.
    """
    dom = u0.domain
    x = map_from_density(u0, cfg.k).positions
    e0 = energy.value(x)
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
    for nstep in range(1, cfg.n_steps + 1):
        if nstep in corrupt_steps:
            xn, conv = x.copy(), True
        else:
            xn, _, conv = jko_step(x, energy, cfg.tau, dom.gap,
                                   cfg.inner_max_iter, cfg.gtol)
        traj.maps.append(TransportMap(dom, xn.copy()))
        traj.energies[nstep] = energy.value(xn)
        traj.step_distances[nstep - 1] = np.sqrt(w2sq_between_maps(xn, x))
        traj.converged[nstep - 1] = conv
        x = xn
    rows = max(RESAMPLE_BLOCK // (u0.m + 1), 1)
    for i in range(1, cfg.n_steps + 1, rows):
        traj.states.extend(densities_from_maps(traj.maps[i:i + rows], u0.m))
    traj.entropies[:] = [boltzmann_entropy(u) for u in traj.states]
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
                      inner_max_iter=cfg.inner_max_iter, gtol=cfg.gtol)
        trajectories.append(run(u0, energy, c))
    stamps = np.arange(1, cfg.n_steps + 1) * cfg.tau
    stamps = stamps[stamps <= horizon + 1e-12]
    gaps = []
    for a, b in zip(trajectories[:-1], trajectories[1:]):
        gaps.append(max(wasserstein2_maps(a.map_at(t), b.map_at(t))
                        for t in stamps))
    return trajectories, gaps
