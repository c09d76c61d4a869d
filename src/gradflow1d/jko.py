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
iteration factors one Hessian.  Each Newton point's arrays are built once,
into one record (`_Point`) by the point's value pass: cell widths,
densities, the interface arrays d, s and r = d/s, and the displacements
from x_{n-1}.  Line-search trials make that pass only.  An accepted point
keeps its trial's record; its gradient and at most one Hessian read it and
are built for the interior nodes only.  The Hessian is written straight
into its interior band block, checked finite once for all its trials, and
factored by LAPACK gbtrf in one work array, which the chord step reuses.
A run is kept as two stacked arrays, one row per step: the map nodes and
their pushforwards' cell values.  After the stepping loop, the step
distances, the grid states and the entropies are computed by array passes
over blocks of those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgbtrf as _gbtrf, dgbtrs as _gbtrs
from .transport import (ConfigurationError, GridDensity, boltzmann_entropy,
                        densities_from_maps, map_from_density,
                        w2sq_between_maps)
from .lagrangian import MobilitySpec

BW = 2  # Hessian bandwidth of the staggered map-coordinate energies
# values per block of stacked rows (`_row_blocks`), in map nodes, grid
# edges or cell values: bounds the temporaries of the step distances, the
# pushforwards and the per-state passes over a whole trajectory
RESAMPLE_BLOCK = 4096
GTOL, FTOL = 1e-11, 1e-15  # inner solver: gradient and decrease tolerances
MAX_ITER = 60  # inner solver: Newton iterations per step


def _row_blocks(start: int, stop: int, width: int) -> list[slice]:
    """Slices covering rows start..stop-1 of a stack whose rows hold
    `width` values each, about RESAMPLE_BLOCK values a slice."""
    rows = max(RESAMPLE_BLOCK // width, 1)
    return [slice(i, min(i + rows, stop)) for i in range(start, stop, rows)]


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
        # at least one block, empty if values[first:] is
        blocks = _row_blocks(first, len(self.values), self.grid.m)
        parts = [fn(self.values[b]) for b in blocks or [slice(first, None)]]
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(p) for p in zip(*parts))
        return np.concatenate(parts)


# --- map-coordinate energies ----------------------------------------------

class _Point:
    """One Newton point's arrays: cell widths dx, densities u, per interface
    d = W(b) - W(a), s = a + b and r = d / s, the energy phi, and the node
    displacements e = x - x_prev; its gradient adds f'(u) and W'(t)."""

    __slots__ = ("dx", "u", "d", "s", "r", "phi", "e", "f1", "w1")


class MobilityMapEnergy:
    """1/2 int |(f o u)'|^2 in map coordinates (thin film: f = identity).

    Cell densities are u_i = dm / dX_i.  The energy is a sum of local
    interface terms T(a, b) = (W(b) - W(a))^2 / (a + b) over consecutive cell
    widths a = dX_i, b = dX_{i+1}, with W(t) = f(dm / t): the staggered
    difference quotient of w = f(u) over the control volume (a + b)/2; the two
    wall nodes carry p = 0 (the Neumann closure).  The gradient and the exact
    banded Hessian in the interior nodes (the walls never move) are
    assembled from the derivatives of T and read a point's record.
    """

    def __init__(self, f: MobilitySpec):
        self.f = f

    def point(self, x, dx=None) -> _Point:
        """x's record, without e; dx, if given, holds the cell widths
        x[1:] - x[:-1]."""
        pt = _Point()
        pt.dx = dx = x[1:] - x[:-1] if dx is None else dx
        pt.u = u = 1.0 / (len(dx) * dx)
        w = self.f.f(u)
        pt.d = d = w[1:] - w[:-1]
        pt.s = s = dx[:-1] + dx[1:]
        pt.r = r = d / s
        pt.phi = float((d * r).sum())
        return pt

    def value(self, x):
        """The energy alone, sum_i d_i r_i."""
        return self.point(x).phi

    def value_and_grad(self, x, pt=None):
        """The energy and its gradient in the interior nodes x[1:-1], from
        x's record pt (built when None), to which f'(u) and W'(t) are
        added for the Hessian."""
        pt = pt or self.point(x)
        dx, u, r = pt.dx, pt.u, pt.r
        pt.f1 = f1 = self.f.f1(u)
        # W'(t) = -f'(u) dm / t^2
        pt.w1 = w1 = -f1 * u / dx
        # T_a = -r (2 W'(a) + r) and T_b = r (2 W'(b) - r); a cell's width
        # derivative is the T_b of the interface on its left minus the T_a
        # of the one on its right, and a node's is the difference of its
        # cells'
        two = 2 * w1
        ta = r * (two[:-1] + r)
        tb = r * (two[1:] - r)
        g_dx = np.empty(len(dx))
        np.subtract(tb[:-1], ta[1:], out=g_dx[1:-1])
        g_dx[0], g_dx[-1] = -ta[0], tb[-1]
        return pt.phi, g_dx[:-1] - g_dx[1:]

    def hessian(self, pt: _Point, c: float):
        """The exact Hessian plus c tridiag(1, 4, 1) (a P1 mass matrix) in
        the interior nodes, in (BW, BW) banded storage: a (2 BW + 1, K - 1)
        block whose corners hold the couplings of the walls' rows, and 0
        outside the matrix.  pt's gradient must have been evaluated.

        With r = d/s, A = W'(a) + r and B = W'(b) - r, each interface adds the
        2x2 block (2/s) [[A^2 - d W''(a), -A B], [-A B, B^2 + d W''(b)]] to
        the tridiagonal Hessian in the cell widths; the node Hessian is
        D^T H D with D the difference matrix dX = D x.  The band rows are
        built in place, without scatter-adds.
        """
        dx, u, d, s, r, w1 = pt.dx, pt.u, pt.d, pt.s, pt.r, pt.w1
        # W''(t) = f''(u) dm^2 / t^4 + 2 f'(u) dm / t^3
        w2 = (self.f.f2(u) * u + 2 * pt.f1) * u / dx ** 2
        a, b = w1[:-1] + r, w1[1:] - r
        off = -2 * a * b / s
        # diag is the cell-width Hessian's diagonal, each cell's block entry
        # from the interface on its right plus the one from its left; sup is
        # the node Hessian's first off-diagonal without the mass
        ha = 2 * (a * a - d * w2[:-1]) / s
        hb = 2 * (b * b + d * w2[1:]) / s
        diag, sup = np.empty((2, len(dx)))
        np.add(ha[1:], hb[:-1], out=diag[1:-1])
        diag[0], diag[-1] = ha[0], hb[-1]
        np.add(off[:-1], off[1:], out=sup[1:-1])
        sup[0], sup[-1] = off[0], off[-1]
        sup -= diag
        H = np.empty((2 * BW + 1, len(off)))
        np.add(diag[1:], diag[:-1], out=H[BW])
        H[BW] -= 2 * off
        H[BW] += 4 * c
        np.add(sup[:-1], c, out=H[BW - 1])
        np.add(sup[1:], c, out=H[BW + 1])
        np.negative(off[:-1], out=H[BW - 2, 1:])
        np.negative(off[1:], out=H[BW + 2, :-1])
        H[BW - 2, 0] = H[BW + 2, -1] = 0.0
        return H


# --- inner solver ---------------------------------------------------------

class _Objective:
    """Phi(x) + W2^2(x#, x_prev#)/(2 tau) over maps with x_prev's walls.
    The transport term is exactly quadratic in the nodes: W2^2 is dm/3 times
    the sum over cells of a^2 + ab + b^2, with a and b the displacements of
    the cell's nodes, and its Hessian is dm/(6 tau) tridiag(1, 4, 1)."""

    def __init__(self, energy: MobilityMapEnergy, x_prev: np.ndarray,
                 tau: float):
        self.energy, self.x_prev, self.tau = energy, x_prev, tau
        self.c = 1.0 / (len(x_prev) - 1) / 3.0
        self.mass = 1.0 / (6.0 * (len(x_prev) - 1) * tau)

    def value(self, x, dx=None) -> tuple[float, _Point]:
        """The objective value and x's record, whose phi is the energy
        part; dx, if given, holds the cell widths."""
        pt = self.energy.point(x, dx)
        pt.e = e = x - self.x_prev
        # e is 0 on the walls, so the cells' squares sum to 2 e.e
        q = self.c * (2 * (e @ e) + e[:-1] @ e[1:])
        return pt.phi + q / (2 * self.tau), pt

    def grad(self, x, pt: _Point):
        """The objective gradient in the interior nodes, from x's record."""
        gphi = self.energy.value_and_grad(x, pt)[1]
        e = pt.e
        two = 2 * e[1:-1]
        # a node's term from the cell on its right plus the one on its left
        gq = self.c * (two + e[2:]) + self.c * (two + e[:-2])
        return gphi + gq / (2 * self.tau)


def _norm(g):
    """Euclidean norm of g: sqrt(g @ g), bitwise np.linalg.norm(g), unless
    that sum of squares overflows, when the norm of g / max|g| is scaled
    back instead."""
    with np.errstate(over="ignore"):
        sq = g @ g
    if math.isfinite(sq):
        return math.sqrt(sq)
    top = np.abs(g).max()
    if not math.isfinite(top):  # an infinite or NaN entry
        return math.sqrt(sq)
    r = g / top
    return float(top) * math.sqrt(r @ r)


# LAPACK's banded LU takes the band with BW fill-in rows above it, which it
# sets itself: entry (i, j) of the matrix sits at ab[2 BW + i - j, j].
def _factor(ab, band, lam):
    """LU-factor H + lam I on the interior nodes, whose finite band block is
    `band` (LAPACK ignores its corners outside the block), in place in the
    Fortran-ordered (3 BW + 1, n - 2) work array ab.  Returns the pivots
    that `_gbtrs` takes with ab, or None where the system is singular."""
    ab[BW:] = band
    ab[2 * BW] += lam
    _, piv, info = _gbtrf(ab, BW, BW, overwrite_ab=True)
    return piv if info == 0 else None


def jko_step(x_prev: np.ndarray, energy: MobilityMapEnergy, tau: float,
             gap: float, phi_prev: float, x_start: np.ndarray | None = None
             ) -> tuple[np.ndarray, float, float, bool]:
    """One minimizing-movement step from the previous map's node positions.

    The end nodes x_prev[0] and x_prev[-1] are the fixed walls; the interior
    nodes are the unknowns.  Damped Newton on the penalized objective Psi
    with the interior block of the exact banded Hessian of the local
    interface kernel, Levenberg regularization when a step is rejected, and
    Armijo backtracking that keeps every cell wider than gap.  A system
    with a non-finite entry, or singular with an interior diagonal of 0
    (which no damping changes), ends the solve.

    phi_prev is Phi(x_prev), which is also Psi(x_prev).  Newton starts at
    x_start (same walls as x_prev) if every cell of it is wider than gap
    and Psi(x_start) < phi_prev, and at x_prev otherwise, exactly as without
    a start; it makes at most MAX_ITER iterations.  When an undamped Newton
    direction p (lambda = 0) predicts a decrease -p.g/2 of at most
    FTOL max(|Psi(x)|, 1e-30), x + p is taken if its cells are wider than
    gap and Psi(x + p) <= phi_prev, x is kept otherwise, and the solve stops
    as converged without a further gradient.  After an accepted step whose
    factorization was undamped, the next iteration first solves its new
    gradient with that LU (a chord step); a direction that meets this rule
    ends the solve the same way, and one that does not is discarded before
    the new point's Hessian is assembled.  A damped LU is never reused.

    Line-search trials make the value pass only, from the cell widths of
    their feasibility check; an accepted point keeps its record for its
    gradient and next Hessian.  Each Hessian's band is checked finite once
    for all its trials, and each banded system is factored by LAPACK gbtrf
    and solved by gbtrs in one work array.  Returns (positions, objective
    value, its energy part Phi, converged flag); Psi(positions) <= phi_prev
    holds whatever the flag, so the per-step energy estimates hold.
    """
    obj = _Objective(energy, x_prev, tau)
    x, pt = x_prev, None
    f = phi = phi_prev
    if x_start is not None:
        dxs = x_start[1:] - x_start[:-1]
        if dxs.min() > gap:
            # a predictor whose energy overflows fails the test below
            with np.errstate(over="ignore"):
                fs, start = obj.value(x_start, dxs)
            if fs < phi_prev:
                x, f, phi, pt = x_start, fs, start.phi, start
    if pt is None:  # x_prev's record: no displacement
        pt = energy.point(x)
        pt.e = np.zeros_like(x)
    x = x.copy()
    g = obj.grad(x, pt)
    gnorm = _norm(g)
    gref = max(gnorm, 1e-30)
    lam = 0.0
    ab = np.empty((3 * BW + 1, len(x) - 2), order="F")
    # the pivots of ab while it holds the LU of the previous point's
    # undamped Hessian, None otherwise
    piv = None
    converged = gnorm <= GTOL
    for _ in range(MAX_ITER if not converged else 0):
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
            H = energy.hessian(pt, obj.mass)
            finite = np.isfinite(H).all() and np.isfinite(g).all()
        # no trial without a finite system, or once lam cannot grow
        for _trial in range(30 if not final and finite else 0):
            piv = _factor(ab, H, lam)
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
                    if dxn.min() > gap:
                        fn, ptn = obj.value(xn, dxn)
                        if fn <= f + 1e-4 * alpha * slope or (fn < f and alpha < 1e-6):
                            moved = True
                            break
                    alpha *= 0.5
                if moved:
                    break
            grown = 1e-3 * np.abs(H[BW]).max() if lam == 0 else 10 * lam
            if not lam < grown < np.inf:  # a zero diagonal, or overflow
                break
            lam = grown
        if final:
            xn = x.copy()
            xn[1:-1] += p
            dxn = xn[1:] - xn[:-1]
            if dxn.min() > gap:
                fn, ptn = obj.value(xn, dxn)
                if fn <= phi_prev:
                    x, f, phi = xn, fn, ptn.phi
            converged = True
            break
        if not moved:
            break
        if lam:  # never reuse a damped LU
            piv = None
        df = f - fn
        x, f, phi, pt = xn, fn, ptn.phi, ptn
        g = obj.grad(x, pt)
        lam *= 0.1
        if _norm(g) < GTOL * gref or df < FTOL * max(abs(f), 1e-30):
            converged = True
            break
    if not converged:
        # stalled in rounding noise near equilibrium: x is still stationary
        # to working precision if each gradient component is within what
        # moving the nodes by one ulp of the domain scale changes it by
        ulp = np.spacing(max(abs(x[0]), abs(x[-1])))
        row = np.abs(energy.hessian(pt, obj.mass)).sum(axis=0)
        converged = bool((np.abs(g) <= ulp * row).all())
    return x, f, phi, converged


# --- trajectories ---------------------------------------------------------

def run(u0: GridDensity, energy: MobilityMapEnergy, cfg: JkoConfig
        ) -> JkoTrajectory:
    """Iterate the scheme n_steps times from u0.

    The loop only steps, writing each step's map nodes and energy into its
    row.  From the second step on, `jko_step` gets the stored Phi(x_{n-1})
    as its descent bound and an extrapolated map as its start, walls
    unchanged: 2 x_1 - x_0 at step 2 and the second-order
    3 x_{n-1} - 3 x_{n-2} + x_{n-3} from step 3 on.  Energies are those of
    the maps in map coordinates (the coordinates actually minimized), as
    `jko_step` evaluated them, so monotonicity is a property of the
    optimization, not of resampling.  After the loop, blocks of about
    RESAMPLE_BLOCK values of the stacked rows (`_row_blocks`) give the step
    distances, from batched passes over the nodes (`w2sq_between_maps`),
    and the grid states, a view of the maps: their rows are pushforwards on
    u0's grid, and the entropies come from array passes over those rows
    (`per_state`); row 0 is the supplied initial datum verbatim.  A
    non-finite Phi(x_0), such as a mobility's constant factor overflowing
    it, raises ConfigurationError before any step.
    """
    dom, n = u0.domain, cfg.n_steps
    x = map_from_density(u0, cfg.k)
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
        start = None
        if i > 1:
            x1, x2 = pos[i - 1, 1:-1], pos[i - 2, 1:-1]
            start = pos[i - 1].copy()
            start[1:-1] = (2 * x1 - x2 if i == 2 else
                           3 * (x1 - x2) + pos[i - 3, 1:-1])
        pos[i], _, energies[i], traj.converged[i - 1] = jko_step(
            pos[i - 1], energy, cfg.tau, dom.gap, x_start=start,
            phi_prev=energies[i - 1])
    for b in _row_blocks(0, n, x.size):
        traj.step_distances[b] = np.sqrt(
            w2sq_between_maps(pos[b.start + 1:b.stop + 1], pos[b]))
    traj.values[0] = u0.values
    for b in _row_blocks(1, n + 1, u0.m + 1):
        traj.values[b] = densities_from_maps(dom, pos[b], u0.m)
    traj.entropies[:] = traj.per_state(lambda v: boltzmann_entropy(u0, v))
    return traj


def refine_study(u0: GridDensity, energy: MobilityMapEnergy, cfg: JkoConfig,
                 levels: int = 3) -> tuple[list, list]:
    """Self-convergence study: run at tau, tau/2, ..., tau/2^(levels-1) to
    the same horizon and report the sup over the coarsest time stamps of the
    exact map W2 between consecutive-level interpolants."""
    trajectories = []
    for lev in range(levels):
        c = JkoConfig(tau=cfg.tau / 2 ** lev, n_steps=cfg.n_steps * 2 ** lev,
                      k=cfg.k)
        trajectories.append(run(u0, energy, c))
    stamps = np.arange(1, cfg.n_steps + 1) * cfg.tau
    gaps = []
    for a, b in zip(trajectories[:-1], trajectories[1:]):
        w2sq = w2sq_between_maps(a.positions[a.step_index(stamps)],
                                 b.positions[b.step_index(stamps)])
        gaps.append(float(np.sqrt(w2sq).max()))
    return trajectories, gaps
