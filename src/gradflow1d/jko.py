"""Minimizing-movement (JKO) time stepping in monotone-map coordinates.

Each step minimizes Psi = W2^2/(2 tau) + Phi over monotone node positions;
the transport term is exactly quadratic in this parametrization and mass /
nonnegativity are automatic.  The domain is fixed, so the two end nodes stay
on the walls and the unknowns are the interior nodes.  The inner solver is a
damped banded Newton method on the interior block of the exact pentadiagonal
Hessian, assembled from one local interface kernel.  Every Newton system is
symmetric positive definite or damped until it is: it is factored by
banded Cholesky, and a system that is not SPD grows the Levenberg damping,
so each direction descends (modified Newton).  It starts from the
polynomial extrapolation through the last q = min(ORDER, n) maps,
x_{n-1} + sum_{k<q} nabla^k x_{n-1} (the linear 2 x_1 - x_0 at step 2),
when every cell of that map is wider than the minimum gap and its Psi is
below Phi(x_{n-1}), and from x_{n-1} otherwise.
An undamped Newton step that predicts less than FTOL of relative decrease
is the last one: it is taken whole if it keeps every cell and Psi at most
Phi(x_{n-1}), and the solve stops without another gradient.  After an
accepted undamped step, the new gradient is first solved with that step's
Cholesky factor (the chord direction): if it is such a last step it is
taken as one, and no Hessian is assembled at the new point; otherwise it
is discarded.  `run` keeps one Cholesky work array between steps, and a
step that ended on its first, undamped direction, no component of it
longer than TINY_ULPS ulps of the domain scale, hands its factor on: the
next step's first direction is that factor's chord direction, taken as
the last step only if it meets the same rule and the same ulp bound, and
discarded otherwise.  So every step ends with Psi(x_n) <= Phi(x_{n-1}),
the descent that the discrete energy estimates need, a step that
converges in one Newton iteration factors at most one Hessian, and one
that starts within rounding of its minimizer usually factors none.  Each
Newton point's arrays are built once, into one record (`_Point`) by the
point's value pass: cell widths, densities, the interface arrays d, s and
r = d/s, and the displacements from x_{n-1}.  Line-search trials make
that pass only.  An accepted point keeps its trial's record; its
gradient and at most one Hessian read it and are built for the interior
nodes only.  The Hessian is written straight into its interior band
block, checked finite once for all its trials, and its lower band, scaled
by a power of two fixed for the step, is factored by LAPACK pbtrf in one
work array, which the chord step reuses.
A run is kept as two stacked arrays, one row per step: the map nodes and
their pushforwards' cell values.  After the stepping loop, the step
distances, the grid states and the entropies are computed by array passes
over blocks of those rows, which only this module slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dpbtrf as _pbtrf, dpbtrs as _pbtrs
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
# each step's start extrapolates the last ORDER maps; orders 6-8 measured
# alike on the benchmark data, and a higher order amplifies fast modes
ORDER = 7
# the start's weights of the last q - 1 step differences, oldest first:
# x_{n-1} + sum_{k<q} nabla^k x_{n-1}, the polynomial through the last q maps
_PREDICT = {q: np.array([(-1.0) ** (q - 2 - j) * math.comb(q - 1, q - 1 - j)
                         for j in range(q - 1)]) for q in range(2, ORDER + 1)}
# a step hands its Cholesky factor on to the next one, which may end on that
# factor's direction, only where both directions have no component longer
# than TINY_ULPS ulps of the domain scale: there the chord direction is
# the Newton one to rounding.  On the relax_long benchmark's datum (seed
# 7, datum 0, 300 steps) 32 to 128 measured alike: 137-157 Hessians
# instead of 321, maps within 2 ulps of those of fresh factors.  At 8 no
# factor is handed on; at 512 maps moved by 1.1e-13 and the objective
# values rose from 671 to 694
TINY_ULPS = 64


def _row_blocks(start: int, stop: int, width: int) -> list[slice]:
    """Slices covering rows start..stop-1 of a stack whose rows hold
    `width` values each, about RESAMPLE_BLOCK values a slice."""
    rows = max(RESAMPLE_BLOCK // width, 1)
    return [slice(i, min(i + rows, stop)) for i in range(start, stop, rows)]


def per_row(fn, rows: np.ndarray):
    """fn's per-row results over a stack of rows (grid states or maps).

    fn maps a block of about RESAMPLE_BLOCK values of rows to an array, or
    a tuple of arrays, with one entry per row along the last axis, along
    which the blocks' results are concatenated in row order."""
    # at least one block, empty if the stack is
    parts = [fn(rows[b]) for b in _row_blocks(0, len(rows), rows.shape[-1])
             or [slice(None)]]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p, axis=-1) for p in zip(*parts))
    return np.concatenate(parts, axis=-1)


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


# --- map-coordinate energies ----------------------------------------------

class _Point:
    """One Newton point's arrays: cell widths dx, densities u, w = f(u), per
    interface d = W(b) - W(a), s = a + b and r = d / s, the energy phi and
    the node displacements e = x - x_prev; its gradient adds f'(u), W'(t)."""

    __slots__ = ("dx", "u", "w", "d", "s", "r", "phi", "e", "f1", "w1")


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
        pt.w = w = self.f.f(u)
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
        added for the Hessian.  x may hold one map per column (nodes on
        axis 0): each gradient column is bitwise that map's."""
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
        g_dx = np.empty_like(dx)
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
        # an entry that overflows is left inf or NaN, for the solver's
        # finiteness check to refuse
        with np.errstate(over="ignore"):
            dx, u, d, s, r, w1 = pt.dx, pt.u, pt.d, pt.s, pt.r, pt.w1
            # W''(t) = f''(u) dm^2 / t^4 + 2 f'(u) dm / t^3
            w2 = (self.f.f2(u) * u + 2 * pt.f1) * u / dx ** 2
            a, b = w1[:-1] + r, w1[1:] - r
            off = -2 * a * b / s
            # diag is the cell-width Hessian's diagonal, each cell's block
            # entry from the interface on its right plus the one from its
            # left; sup is the node Hessian's first off-diagonal without the
            # mass
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
    the cell's nodes, and its Hessian is dm/(6 tau) tridiag(1, 4, 1).

    `scale` is the power of two 2^-e by which each Newton system is scaled
    before it is factored: e is the binary exponent of the mass coefficient
    dm/(6 tau), which 2^-e brings into [1/2, 1), or 0 where that
    coefficient is below 1/2, so that a system is never scaled up (and
    never overflows).  Dilating the domain by a power of two scales the
    coefficient and the whole Hessian by one power of two, so the scaled
    systems, and their Cholesky factors, keep the same bits."""

    def __init__(self, energy: MobilityMapEnergy, x_prev: np.ndarray,
                 tau: float):
        self.energy, self.x_prev, self.tau = energy, x_prev, tau
        self.c = 1.0 / (len(x_prev) - 1) / 3.0
        self.mass = 1.0 / (6.0 * (len(x_prev) - 1) * tau)
        self.scale = 2.0 ** -max(math.frexp(self.mass)[1], 0)

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


def _ulp(x):
    """One ulp of the domain scale, the larger magnitude of map x's walls."""
    return np.spacing(max(abs(x[0]), abs(x[-1])))


def _rounding_level(p, x) -> bool:
    """Whether no component of the direction p is longer than TINY_ULPS
    ulps of the domain scale of map x."""
    return np.abs(p).max() <= TINY_ULPS * _ulp(x)


def _stationary(x, g, H) -> bool:
    """Whether x, with gradient g and Hessian band block H, is stationary
    to working precision: each gradient component is within what moving
    the nodes by one ulp of the domain scale changes it by."""
    with np.errstate(over="ignore"):  # a column sum may overflow to inf
        change = _ulp(x) * np.abs(H).sum(axis=0)
    return bool((np.abs(g) <= change).all())


class _Factor:
    """A Cholesky work array for the interior nodes of n + 2 node maps, in
    LAPACK's lower band storage, and whether it holds a factor that the
    step which last wrote it hands on to the next step."""

    __slots__ = ("ab", "reusable")

    def __init__(self, n: int):
        self.ab = np.empty((BW + 1, n), order="F")
        self.reusable = False


# LAPACK's banded Cholesky takes the lower band of a symmetric matrix: entry
# (i, j), i >= j, sits at ab[i - j, j], which is band[BW + i - j, j] of the
# Hessian's band block, so ab holds band[BW:].
def _factor(ab, band, lam, scale):
    """Cholesky-factor scale (H + lam I) on the interior nodes, whose finite
    band block is `band` (LAPACK ignores its corners outside the block), in
    place in the Fortran-ordered (BW + 1, n - 2) work array ab, for
    `_pbtrs` to solve with.  scale is a power of two, so it rounds
    nothing; it keeps the factor's square roots exact under a dilation of
    the domain, which scales the Hessian by a power of two too.  Returns
    whether the system is positive definite; where it is not, ab holds no
    factor."""
    np.multiply(band[BW:], scale, out=ab)
    if lam:
        ab[0] += scale * lam
    return _pbtrf(ab, lower=1, overwrite_ab=1)[1] == 0


def jko_step(x_prev: np.ndarray, energy: MobilityMapEnergy, tau: float,
             gap: float, phi_prev: float, x_start: np.ndarray | None = None,
             factor: _Factor | None = None
             ) -> tuple[np.ndarray, float, float, bool]:
    """One minimizing-movement step from the previous map's node positions.

    The end nodes x_prev[0] and x_prev[-1] are the fixed walls; the interior
    nodes are the unknowns.  Damped Newton on the penalized objective Psi
    with the interior block of the exact banded Hessian of the local
    interface kernel, Levenberg regularization when a system is not
    positive definite or a step is rejected, and Armijo backtracking that
    keeps every cell wider than gap.  A system with a non-finite entry, or
    one that is not positive definite with an interior diagonal of 0
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
    gradient with that Cholesky factor (a chord step); a direction that
    meets this rule ends the solve the same way, and one that does not is
    discarded before the new point's Hessian is assembled.  A damped
    factor is never reused.  An accepted step that decreases Psi by less
    than FTOL relatively ends the solve as converged, except a damped one
    that does not decrease it at all (a stall): the solve goes on
    undamped, and if x is stationary to working precision (the test that
    also judges a solve that runs out of iterations), the undamped
    direction is tried as the last step only and the solve ends as
    converged either way.

    factor, if given, is the Cholesky work array that `run` keeps between
    steps.  If the step that last wrote it handed its factor on, the first
    iteration solves its gradient with that factor, through the same
    chord branch, and that direction ends the solve as above only if,
    besides, no component of it is longer than TINY_ULPS ulps of the
    domain scale; otherwise it is discarded, at the cost of one solve.
    The step hands its own factor on only if it ended on its first,
    undamped direction, with no component longer than that: there the
    chord direction is the Newton one to rounding.  Without a factor, or
    with one not handed on, the step is the same, bitwise.

    Line-search trials make the value pass only, from the cell widths of
    their feasibility check; an accepted point keeps its record for its
    gradient and next Hessian.  Each Hessian's band is checked finite once
    for all its trials.  Each system is scaled by the step's power of two
    (`_Objective.scale`), factored by LAPACK pbtrf and solved by pbtrs in
    one work array; a system that is not positive definite grows lambda.
    Returns (positions, objective value, its energy part Phi, converged
    flag); Psi(positions) <= phi_prev holds whatever the flag, so the
    per-step energy estimates hold.
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
    if factor is None:
        factor = _Factor(len(x) - 2)
    # whether ab holds the factor of the previous point's undamped Hessian,
    # or at the first iteration one handed on by the previous step
    ab, chord, factor.reusable = factor.ab, factor.reusable, False
    # whether the last accepted step was damped and Psi rounded it away
    stalled = False
    converged = gnorm <= GTOL
    for it in range(MAX_ITER if not converged else 0):
        rhs = g * -obj.scale
        small = FTOL * max(abs(f), 1e-30)
        moved = final = False
        if chord:
            # the chord direction: that factor against the new gradient; it
            # is taken only as the last step, and discarded otherwise
            p = _pbtrs(ab, rhs, lower=1)[0]
            slope = p @ g
            # a handed-on factor's direction must be rounding-level too
            final = slope < -1e-30 and -0.5 * slope <= small and (
                it > 0 or _rounding_level(p, x))
        if not final:
            H = energy.hessian(pt, obj.mass)
            # g's norm is finite only if every entry is; an infinite one
            # can also be an overflow of finite entries
            finite = np.isfinite(H).all() and (
                math.isfinite(gnorm) or np.isfinite(g).all())
            # after a stall at a stationary x, the undamped direction is
            # tried as the last step only, and the solve ends either way
            last = stalled and _stationary(x, g, H)
        # no trial without a finite system, or once lam cannot grow; one
        # undamped trial after a stall at a stationary x
        for _trial in range(0 if final or not finite else 1 if last else 30):
            chord = _factor(ab, H, lam, obj.scale)
            p = _pbtrs(ab, rhs, lower=1)[0] if chord else None
            if p is not None and (slope := p @ g) < -1e-30:
                # an undamped step that predicts less than FTOL of decrease
                # is the last one
                final = lam == 0 and -0.5 * slope <= small
                if final or last:
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
            # only an undamped factor ends a step at its first iteration
            factor.reusable = it == 0 and _rounding_level(p, x)
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
            converged = last
            break
        if lam:  # never reuse a damped factor
            chord = False
        df = f - fn
        # a damped step whose Psi rounds to the previous value says nothing
        # about x: Newton goes on undamped
        stalled = lam > 0 and df <= 0
        x, f, phi, pt = xn, fn, ptn.phi, ptn
        g = obj.grad(x, pt)
        gnorm = _norm(g)
        lam = 0.0 if stalled else 0.1 * lam
        if gnorm < GTOL * gref or (
                df < FTOL * max(abs(f), 1e-30) and not stalled):
            converged = True
            break
    if not converged:  # no step found, or out of iterations
        converged = _stationary(x, g, energy.hessian(pt, obj.mass))
    return x, f, phi, converged


# --- trajectories ---------------------------------------------------------

def run(u0: GridDensity, energy: MobilityMapEnergy, cfg: JkoConfig
        ) -> JkoTrajectory:
    """Iterate the scheme n_steps times from u0.

    The loop only steps, writing each step's map nodes and energy into its
    row.  From the second step on, `jko_step` gets the stored Phi(x_{n-1})
    as its descent bound and an extrapolated map as its start, walls
    unchanged: the polynomial through the last q = min(ORDER, n) maps,
    x_{n-1} + sum_{k<q} nabla^k x_{n-1}, in one product of the fixed
    weights `_PREDICT[q]` with the q - 1 step differences.  That form
    starts after equal maps at x_{n-1} bitwise, and it is exact for maps
    polynomial of degree < q in n; as in an implicit integrator's
    predictor, it brings most steps to their last Newton direction at the
    first iteration.  One Cholesky work array (`_Factor`) goes from each
    step to the next, so that a step which starts within rounding of its
    minimizer can end on the previous step's factor, with no Hessian of
    its own.  Energies are those of
    the maps in map coordinates (the coordinates actually minimized), as
    `jko_step` evaluated them, so monotonicity is a property of the
    optimization, not of resampling.  After the loop, blocks of about
    RESAMPLE_BLOCK values of the stacked rows (`_row_blocks`) give the step
    distances, from batched passes over the nodes (`w2sq_between_maps`),
    and the grid states, a view of the maps: their rows are pushforwards on
    u0's grid, and the entropies come from array passes over those rows
    (`per_row`); row 0 is the supplied initial datum verbatim.  A
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
    factor = _Factor(x.size - 2)
    for i in range(1, n + 1):
        start = None
        if i > 1:
            q = min(ORDER, i)
            start = pos[i - 1].copy()
            last = pos[i - q:i, 1:-1]
            start[1:-1] += _PREDICT[q] @ (last[1:] - last[:-1])
        pos[i], _, energies[i], traj.converged[i - 1] = jko_step(
            pos[i - 1], energy, cfg.tau, dom.gap, x_start=start,
            phi_prev=energies[i - 1], factor=factor)
    for b in _row_blocks(0, n, x.size):
        traj.step_distances[b] = np.sqrt(
            w2sq_between_maps(pos[b.start + 1:b.stop + 1], pos[b]))
    traj.values[0] = u0.values
    for b in _row_blocks(1, n + 1, u0.m + 1):
        traj.values[b] = densities_from_maps(dom, pos[b], u0.m)
    traj.entropies[:] = per_row(lambda v: boltzmann_entropy(u0, v),
                                traj.values)
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
