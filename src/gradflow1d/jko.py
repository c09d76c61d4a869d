"""Minimizing-movement (JKO) time stepping in monotone-map coordinates.

Each step minimizes Psi = W2^2/(2 tau) + Phi over monotone node positions;
the transport term is exactly quadratic in this parametrization and mass /
nonnegativity are automatic.  The domain is fixed, so the two end nodes stay
on the walls and the unknowns are the interior nodes.  The inner solver is a
damped banded Newton method on the interior block of the exact pentadiagonal
Hessian, assembled from one local interface kernel.  It starts from the
second-order extrapolation 3 x_{n-1} - 3 x_{n-2} + x_{n-3} (the linear
2 x_1 - x_0 at step 2) when every cell of that map is wider than the
minimum gap and its Psi is below Phi(x_{n-1}), and from x_{n-1} otherwise.
An undamped Newton step that predicts less than FTOL of relative decrease
is the last one: it is taken whole if it keeps every cell and Psi at most
Phi(x_{n-1}), and the solve stops without another gradient.  After an
accepted undamped step, the new gradient is first solved with that step's
LU (the chord direction): if it is such a last step it is taken as one, and
no Hessian is assembled at the new point; otherwise it is discarded.  So
every step ends with Psi(x_n) <= Phi(x_{n-1}), the descent that the
discrete energy estimates need, and a step that converges in one Newton
iteration factors one Hessian.  Line-search trials evaluate the objective
value only.  An accepted point keeps its trial's value and evaluates only
the gradient, plus at most one Hessian; both share that point's interface
arrays (cell widths, densities, f'(u), d/s).  Each Hessian's band is
written row by row, checked finite once for all its trials, and factored by
LAPACK gbtrf in one work array, which the chord direction reuses.
A run is kept as two stacked arrays, one row per step: the map nodes and
their pushforwards' cell values.  After the stepping loop, the step
distances, the grid states and the entropies are computed by array passes
over blocks of those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .transport import (ConfigurationError, GridDensity, boltzmann_entropy,
                        consecutive_distances, densities_from_maps,
                        map_from_density, w2sq_between_maps)
from .lagrangian import MobilitySpec

BW = 2  # Hessian bandwidth of the staggered map-coordinate energies
# grid-edge entries per batched pushforward in `run`, and cell values per
# stacked block of the per-state array passes: bounds the temporaries of
# resampling and certifying a whole trajectory
RESAMPLE_BLOCK = 4096
GTOL, FTOL = 1e-11, 1e-15  # inner solver: gradient and decrease tolerances


@dataclass
class JkoConfig:
    tau: float
    n_steps: int
    k: int = 256

    def __post_init__(self):
        if not 0 < self.tau < np.inf or self.k < 8 or self.n_steps < 0:
            raise ConfigurationError("invalid scheme configuration")


@dataclass
class JkoTrajectory:
    """Piecewise-constant discrete solution u_tau(t) = u^n for n = ceil(t/tau).

    Row n of `positions` ((N+1) x (K+1)) holds the nodes of map n, row n of
    `values` ((N+1) x M) its pushforward on the cells of `grid`, u^0."""

    tau: float
    times: np.ndarray
    grid: GridDensity
    positions: np.ndarray
    values: np.ndarray
    energies: np.ndarray
    step_distances: np.ndarray
    entropies: np.ndarray
    converged: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    def step_index(self, t):
        """The row n = ceil(t/tau) of time t, clipped to [0, N]; t may be an
        array of times."""
        n = np.ceil(np.asarray(t) / self.tau - 1e-12).astype(int)
        return np.clip(n, 0, self.n_steps)

    def per_state(self, fn, first: int = 0):
        """fn's per-state results over values[first:], from array passes.

        fn maps a block of rows of `values` to an array, or a tuple of
        arrays, with one entry per row; it runs on blocks of about
        RESAMPLE_BLOCK values, and the blocks' results are concatenated in
        state order.
        """
        rows = max(RESAMPLE_BLOCK // self.grid.m, 1)
        # at least one block, empty if values[first:] is
        parts = [fn(self.values[i:i + rows])
                 for i in range(first, max(len(self.values), first + 1), rows)]
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(p) for p in zip(*parts))
        return np.concatenate(parts)


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

    def _interfaces(self, x, dx=None):
        """Cell widths t, densities u, f'(u), W'(t), and per interface
        d = W(b) - W(a), s = a + b and r = d / s.  dx, if given, holds the
        widths."""
        dx = x[1:] - x[:-1] if dx is None else dx
        u = 1.0 / ((len(x) - 1) * dx)
        f1 = self.f.f1(u)
        w = self.f.f(u)
        d = w[1:] - w[:-1]
        s = dx[:-1] + dx[1:]
        # W'(t) = -f'(u) dm / t^2
        return dx, u, f1, -f1 * u / dx, d, s, d / s

    def value(self, x, dx=None):
        """The energy alone: the value of `value_and_grad`, without W'.
        dx, if given, holds the cell widths x[1:] - x[:-1]."""
        dx = x[1:] - x[:-1] if dx is None else dx
        w = self.f.f(1.0 / ((len(x) - 1) * dx))
        d = w[1:] - w[:-1]
        return float((d * (d / (dx[:-1] + dx[1:]))).sum())

    def value_and_grad(self, x, iface=None):
        dx, u, f1, w1, d, s, r = iface or self._interfaces(x)
        # T_a = -r (2 W'(a) + r) and T_b = r (2 W'(b) - r); a cell's width
        # derivative is the T_b of the interface on its left minus the T_a
        # of the one on its right, and a node's is the difference of its
        # cells' (the walls see one cell each)
        two = 2 * w1
        ta = r * (two[:-1] + r)
        tb = r * (two[1:] - r)
        g_dx = _with_ends(np.subtract, -ta[0], tb[:-1], ta[1:], tb[-1])
        gx = _with_ends(np.subtract, -g_dx[0], g_dx[:-1], g_dx[1:], g_dx[-1])
        return float((d * r).sum()), gx

    def hessian_banded(self, x, iface=None):
        """Exact Hessian in the nodes, in (BW, BW) banded storage.

        With r = d/s, A = W'(a) + r and B = W'(b) - r, each interface adds the
        2x2 block (2/s) [[A^2 - d W''(a), -A B], [-A B, B^2 + d W''(b)]] to
        the tridiagonal Hessian in the cell widths; the node Hessian is
        D^T H D with D the difference matrix dX = D x.  The band rows are
        built in place, without scatter-adds; the corners outside the
        matrix are 0.
        """
        dx, u, f1, w1, d, s, r = iface or self._interfaces(x)
        # W''(t) = f''(u) dm^2 / t^4 + 2 f'(u) dm / t^3
        w2 = (self.f.f2(u) * u + 2 * f1) * u / dx ** 2
        a, b = w1[:-1] + r, w1[1:] - r
        off = -2 * a * b / s
        # the cell-width Hessian's diagonal: each cell's block entry from the
        # interface on its right plus the one from the interface on its left
        ha = 2 * (a * a - d * w2[:-1]) / s
        hb = 2 * (b * b + d * w2[1:]) / s
        diag = _with_ends(np.add, ha[0], ha[1:], hb[:-1], hb[-1])
        H = np.zeros((2 * BW + 1, len(x)))
        _with_ends(np.add, diag[0], diag[1:], diag[:-1], diag[-1], H[BW])
        H[BW, 1:-1] -= 2 * off
        sup = _with_ends(np.add, off[0], off[:-1], off[1:], off[-1],
                         H[BW - 1, 1:])
        sup -= diag
        H[BW + 1, :-1] = sup
        H[BW - 2, 2:] = H[BW + 2, :-2] = -off
        return H


def _with_ends(op, first, left, right, last, out=None):
    """[first, op(left, right)..., last] in out, or in a new array."""
    out = np.empty(len(left) + 2) if out is None else out
    op(left, right, out=out[1:-1])
    out[0], out[-1] = first, last
    return out


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
        # band rows BW-1..BW+1 of the transport term's P1 mass matrix
        # dm/(6 tau) tridiag(1, 4, 1), 0 in the corners outside the matrix
        c = 1.0 / (6.0 * (len(x_prev) - 1) * tau)
        self.mass = np.array([[c], [4 * c], [c]]).repeat(len(x_prev), axis=1)
        self.mass[0, 0] = self.mass[2, -1] = 0.0

    def value_and_energy(self, x, dx=None):
        """The objective value and its energy part Phi(x); dx, if given,
        holds the cell widths."""
        d = x - self.x_prev
        a, b = d[:-1], d[1:]
        q = (1.0 / (len(x) - 1) / 3.0) * (a * a + a * b + b * b).sum()
        phi = self.energy.value(x, dx)
        return phi + q / (2 * self.tau), phi

    def grad(self, x, iface=None):
        """The objective gradient alone, from the energy's interface arrays
        (or x's own when iface is None)."""
        gphi = self.energy.value_and_grad(x, iface)[1]
        d = x - self.x_prev
        c = 1.0 / (len(x) - 1) / 3.0
        two = 2 * d
        # a node's term from the cell on its right plus the one on its left
        right = c * (two[:-1] + d[1:])
        left = c * (two[1:] + d[:-1])
        gq = _with_ends(np.add, right[0], right[1:], left[:-1], left[-1])
        return gphi + gq / (2 * self.tau)

    def __call__(self, x, iface=None):
        return self.value_and_energy(x)[0], self.grad(x, iface)

    def hessian_banded(self, x, iface=None):
        """Energy Hessian plus the constant P1 mass matrix of the transport
        term, dm/(6 tau) tridiag(1, 4, 1); exact in the interior rows, the
        only ones the solver reads (a wall row's diagonal would take 2)."""
        H = self.energy.hessian_banded(x, iface)
        H[BW - 1:BW + 2] += self.mass
        return H


# LAPACK's banded LU takes the band with BW fill-in rows above it, which it
# sets itself: entry (i, j) of the matrix sits at ab[2 BW + i - j, j].
_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (np.zeros(1),))


def _factor(ab, band, lam):
    """LU-factor H + lam I on the interior nodes, whose block of the node
    Hessian H is `band`, columns 1:-1 of its band storage (LAPACK ignores
    the corners outside the block), in place in the Fortran-ordered
    (3 BW + 1, n - 2) work array ab.  The caller passes band = None where
    it or the gradient has a non-finite entry.  Returns the pivots that
    `_gbtrs` takes with ab, or None where the system has a non-finite entry
    or is singular."""
    if band is None or not lam < np.inf:
        return None
    ab[BW:] = band
    ab[2 * BW] += lam
    _, piv, info = _gbtrf(ab, BW, BW, overwrite_ab=True)
    return piv if info == 0 else None


def jko_step(x_prev: np.ndarray, energy: MobilityMapEnergy, tau: float,
             gap: float, max_iter: int = 60, x_start: np.ndarray | None = None,
             phi_prev: float | None = None
             ) -> tuple[np.ndarray, float, float, bool]:
    """One minimizing-movement step from the previous map's node positions.

    The end nodes x_prev[0] and x_prev[-1] are the fixed walls; the interior
    nodes are the unknowns.  Damped Newton on the penalized objective Psi
    with the interior block of the exact banded Hessian of the local
    interface kernel, Levenberg regularization when a step is rejected, and
    Armijo backtracking that keeps every cell wider than gap.

    phi_prev, if given, is Phi(x_prev), which is also Psi(x_prev); it is
    computed when None.  Newton starts at x_start (same walls as x_prev) if
    every cell of it is wider than gap and Psi(x_start) < phi_prev, and at
    x_prev otherwise, exactly as without a start.  When an undamped Newton
    direction p (lambda = 0) predicts a decrease -p.g/2 of at most
    FTOL max(|Psi(x)|, 1e-30), x + p is taken if its cells are wider than
    gap and Psi(x + p) <= phi_prev, x is kept otherwise, and the solve stops
    as converged without a further gradient.  After an accepted step whose
    factorization was undamped, the next iteration first solves its new
    gradient with that LU (a chord step); a direction that meets this rule
    ends the solve the same way, and one that does not is discarded before
    the new point's Hessian is assembled.  A damped LU is never reused.

    Line-search trials evaluate the objective value only, from the cell
    widths of their feasibility check.  An accepted point already has its
    value from the line search and evaluates the gradient alone; its
    interface arrays, built from those widths, serve that gradient and the
    next Hessian.  Each Hessian's band is checked finite once for all its
    trials, and each banded system is factored by LAPACK gbtrf and solved
    by gbtrs in one work array.  Returns (positions, objective value, its
    energy part Phi, converged flag); Psi(positions) <= phi_prev holds
    whatever the flag, so the per-step energy estimates hold regardless of
    it.
    """
    obj = _Objective(energy, x_prev, tau)
    x, dx = x_prev, x_prev[1:] - x_prev[:-1]
    if phi_prev is None:
        phi_prev = obj.value_and_energy(x, dx)[0]
    f = phi = phi_prev
    if x_start is not None:
        dxs = x_start[1:] - x_start[:-1]
        if (dxs > gap).all():
            fs, phis = obj.value_and_energy(x_start, dxs)
            if fs < phi_prev:
                x, dx, f, phi = x_start, dxs, fs, phis
    x = x.copy()
    iface = energy._interfaces(x, dx)
    g = obj.grad(x, iface)[1:-1]
    gnorm = math.sqrt(g @ g)  # bitwise np.linalg.norm(g)
    gref = max(gnorm, 1e-30)
    lam = 0.0
    ab = np.empty((3 * BW + 1, len(x) - 2), order="F")
    # the pivots of ab while it holds the LU of the previous point's
    # undamped Hessian, None otherwise
    piv = None
    converged = gnorm <= GTOL
    for _ in range(max_iter if not converged else 0):
        mg = -g
        small = FTOL * max(abs(f), 1e-30)
        moved = final = False
        if piv is not None:
            # the chord direction: that LU against the new gradient; it is
            # taken only as the last step, and discarded otherwise
            p = _gbtrs(ab, BW, BW, mg, piv)[0]
            slope = p @ g
            final = slope < -1e-30 and -0.5 * slope <= small
        if not final:
            H = obj.hessian_banded(x, iface)
            band = H[:, 1:-1]
            if not (np.isfinite(band).all() and np.isfinite(g).all()):
                band = None
        for _trial in range(30 if not final else 0):
            piv = _factor(ab, band, lam)
            p = None if piv is None else _gbtrs(ab, BW, BW, mg, piv)[0]
            if p is not None and (slope := p @ g) < -1e-30:
                # an undamped step that predicts less than FTOL of decrease
                # is the last one
                final = lam == 0 and -0.5 * slope <= small
                if final:
                    break
                alpha = 1.0
                for _ in range(40):
                    xn = x.copy()
                    xn[1:-1] += alpha * p
                    dxn = xn[1:] - xn[:-1]
                    if (dxn > gap).all():
                        fn, phin = obj.value_and_energy(xn, dxn)
                        if fn <= f + 1e-4 * alpha * slope or (fn < f and alpha < 1e-6):
                            moved = True
                            break
                    alpha *= 0.5
                if moved:
                    break
            lam = 1e-3 * np.abs(H[BW, 1:-1]).max() if lam == 0 else 10 * lam
        if final:
            xn = x.copy()
            xn[1:-1] += p
            dxn = xn[1:] - xn[:-1]
            if (dxn > gap).all():
                fn, phin = obj.value_and_energy(xn, dxn)
                if fn <= phi_prev:
                    x, f, phi = xn, fn, phin
            converged = True
            break
        if not moved:
            break
        if lam:  # never reuse a damped LU
            piv = None
        df = f - fn
        iface = energy._interfaces(xn, dxn)
        x, f, phi, g = xn, fn, phin, obj.grad(xn, iface)[1:-1]
        lam *= 0.1
        if math.sqrt(g @ g) < GTOL * gref or df < FTOL * max(abs(f), 1e-30):
            converged = True
            break
    if not converged:
        # stalled in rounding noise near equilibrium: x is still stationary
        # to working precision if each gradient component is within what
        # moving the nodes by one ulp of the domain scale changes it by
        ulp = np.spacing(max(abs(x[0]), abs(x[-1])))
        row = np.abs(obj.hessian_banded(x, iface)[:, 1:-1]).sum(axis=0)
        converged = bool((np.abs(g) <= ulp * row).all())
    return x, f, phi, converged


# --- trajectories ---------------------------------------------------------

def run(u0: GridDensity, energy: MobilityMapEnergy, cfg: JkoConfig,
        corrupt_steps: tuple = ()) -> JkoTrajectory:
    """Iterate the scheme n_steps times from u0.

    The loop only steps, writing each step's map nodes and energy into its
    row.  From the second step on, `jko_step` gets the stored Phi(x_{n-1})
    as its descent bound and an extrapolated map as its start, walls
    unchanged: 2 x_1 - x_0 at step 2 and the second-order
    3 x_{n-1} - 3 x_{n-2} + x_{n-3} from step 3 on.  Energies are those of
    the maps in map coordinates (the coordinates actually minimized), as
    `jko_step` evaluated them, so monotonicity is a property of the
    optimization, not of resampling.  After the loop the step distances come from batched
    passes over the stacked nodes (`consecutive_distances`).  The grid
    states are a view of the maps: their rows are pushforwards on u0's
    grid, built in blocks of about RESAMPLE_BLOCK grid edges, and the
    entropies come from array passes over those rows (`per_state`); row 0
    is the supplied initial datum verbatim.  A step listed in corrupt_steps
    copies the previous map instead of minimizing — a negative control that
    breaks the dissipation certificates downstream.  A non-finite Phi(x_0),
    such as a mobility's constant factor overflowing it, raises
    ConfigurationError before any step.
    """
    dom, n = u0.domain, cfg.n_steps
    x = map_from_density(u0, cfg.k).positions
    traj = JkoTrajectory(
        tau=cfg.tau,
        times=np.arange(n + 1) * cfg.tau,
        grid=u0,
        positions=np.empty((n + 1, x.size)),
        values=np.empty((n + 1, u0.m)),
        energies=np.empty(n + 1),
        step_distances=np.empty(n),
        entropies=np.empty(n + 1),
        converged=np.ones(n, dtype=bool),
    )
    pos, energies = traj.positions, traj.energies
    pos[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        energies[0] = energy.value(x)
    if not math.isfinite(energies[0]):
        raise ConfigurationError(
            f"the initial energy is not finite: {energies[0]}")
    for i in range(1, n + 1):
        if i in corrupt_steps:
            pos[i], energies[i] = pos[i - 1], energies[i - 1]
        else:
            start = None
            if i > 1:
                x1, x2 = pos[i - 1, 1:-1], pos[i - 2, 1:-1]
                start = pos[i - 1].copy()
                start[1:-1] = (2 * x1 - x2 if i == 2 else
                               3 * (x1 - x2) + pos[i - 3, 1:-1])
            pos[i], _, energies[i], traj.converged[i - 1] = jko_step(
                pos[i - 1], energy, cfg.tau, dom.gap, x_start=start,
                phi_prev=energies[i - 1])
    traj.step_distances[:] = consecutive_distances(pos)
    traj.values[0] = u0.values
    rows = max(RESAMPLE_BLOCK // (u0.m + 1), 1)
    for i in range(1, n + 1, rows):
        traj.values[i:i + rows] = densities_from_maps(dom, pos[i:i + rows],
                                                      u0.m)
    traj.entropies[:] = traj.per_state(lambda v: boltzmann_entropy(u0, v))
    return traj


def refine_study(u0: GridDensity, energy: MobilityMapEnergy, cfg: JkoConfig,
                 levels: int = 3) -> tuple[list, list]:
    """Self-convergence study: run at tau, tau/2, ..., tau/2^(levels-1) to
    the same horizon and report the sup over the coarsest time stamps of the
    exact map W2 between consecutive-level interpolants."""
    horizon = cfg.tau * cfg.n_steps
    trajectories = []
    for lev in range(levels):
        c = JkoConfig(tau=cfg.tau / 2 ** lev, n_steps=cfg.n_steps * 2 ** lev,
                      k=cfg.k)
        trajectories.append(run(u0, energy, c))
    stamps = np.arange(1, cfg.n_steps + 1) * cfg.tau
    stamps = stamps[stamps <= horizon + 1e-12]
    gaps = []
    for a, b in zip(trajectories[:-1], trajectories[1:]):
        w2sq = w2sq_between_maps(a.positions[a.step_index(stamps)],
                                 b.positions[b.step_index(stamps)])
        gaps.append(float(np.sqrt(w2sq).max()))
    return trajectories, gaps
