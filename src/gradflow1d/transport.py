"""Probability densities on an interval and exact 1D optimal transport.

Densities live on a uniform midpoint grid; transport maps are monotone node
positions at uniform mass levels (the quantile parametrization, in which the
quadratic Wasserstein distance is a plain weighted L2 distance), held as
plain node arrays that both converters check with `_checked_nodes`.  The
quantile map of a density is the exact quantile of its P1 reconstruction,
in closed form on each piece.  The pushforward of a block of maps
interpolates each map by a cubic spline in the mass variable, built row by
row in one LAPACK solve (`_spline_coefficients`, bitwise scipy's
CubicSpline), and inverts it at the grid edges with `_bracketed_inverse`, a
bracketed Newton solve inside the knot interval in which the
piecewise-linear inverse lands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgtsv as _gtsv

MASS_TOL = 1e-12
GAP_REL = 1e-9          # minimum node spacing, relative to domain length
# iteration cap of the pushforward's bracketed solve: it ends after 2-4
# iterations on cosine runs, 4-10 on bump runs and at most 13 on maps with
# lognormal cell widths; bisection alone would need at most 47
BRACKET_ITERATIONS = 60


class ConfigurationError(ValueError):
    """Inconsistent domains, parameters or input shapes."""


class MonotonicityError(ValueError):
    """Map positions not strictly increasing above the minimum gap."""


class DegenerateQuantileError(ConfigurationError):
    """Density vanishes on a plateau wider than the grid resolution."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigurationError(f"empty interval [{self.lo}, {self.hi}]")
        # an infinite end or length makes every cell width and mass inf/NaN
        if not math.isfinite(self.hi - self.lo):
            raise ConfigurationError(
                f"domain [{self.lo}, {self.hi}] needs finite ends and length")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def gap(self) -> float:
        return GAP_REL * self.length


@dataclass
class GridDensity:
    """Nonnegative unit-mass density sampled at M uniform cell midpoints."""

    domain: Interval
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 8:
            raise ConfigurationError("need at least 8 density samples")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("non-finite density sample")
        if np.any(v < -1e-14):
            raise ConfigurationError("negative density sample")
        v = np.maximum(v, 0.0)
        # written so that a NaN mass fails it too
        if not abs(v.sum() * (self.domain.length / v.size) - 1.0) <= MASS_TOL:
            raise ConfigurationError("density mass differs from 1")
        self.values = v

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return self.domain.length / self.m

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.domain.lo, self.domain.hi, self.m + 1)

    @property
    def midpoints(self) -> np.ndarray:
        return self.domain.lo + (np.arange(self.m) + 0.5) * self.h

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_samples(cls, domain: Interval, values) -> "GridDensity":
        """Normalize nonnegative samples to unit mass."""
        v = np.maximum(np.asarray(values, dtype=float), 0.0)
        mass = v.sum() * domain.length / v.size
        if mass <= 0:
            raise ConfigurationError("cannot normalize zero-mass samples")
        return cls(domain, v / mass)

    @classmethod
    def uniform(cls, domain: Interval, m: int = 256) -> "GridDensity":
        return cls(domain, np.full(m, 1.0 / domain.length))

    @classmethod
    def cosine(cls, domain: Interval, m: int = 256, eps: float = 0.5,
               k: int = 2) -> "GridDensity":
        """1/L + (eps/L) cos(k pi (x-lo)/L): a Neumann eigenmode perturbation."""
        if not -1.0 < eps < 1.0:
            raise ConfigurationError("cosine amplitude must be in (-1, 1)")
        x = domain.lo + (np.arange(m) + 0.5) * domain.length / m
        v = (1.0 + eps * np.cos(k * np.pi * (x - domain.lo) / domain.length))
        return cls.from_samples(domain, v / domain.length)

    @classmethod
    def bump(cls, domain: Interval, m: int = 256, center: float | None = None,
             width: float | None = None) -> "GridDensity":
        """Smooth compactly supported bump plus a small uniform background."""
        center = 0.5 * (domain.lo + domain.hi) if center is None else center
        width = 0.5 * domain.length if width is None else width
        if not 0.0 < width < np.inf:
            raise ConfigurationError("bump width must be finite and positive")
        x = domain.lo + (np.arange(m) + 0.5) * domain.length / m
        y = (x - center) / (0.5 * width)
        v = np.where(np.abs(y) < 1, np.exp(-1.0 / np.maximum(1 - y * y, 1e-300)), 0.0)
        # a bump that misses every cell, or is flat across the grid, would
        # be the stationary uniform datum
        if v.min() == v.max():
            raise ConfigurationError(
                "bump is constant on the grid: it misses every cell or is "
                "wider than the grid resolves")
        return cls.from_samples(domain, v + 1e-3 / domain.length)


# --- distances and entropy ------------------------------------------------

def w2sq_between_maps(xa: np.ndarray, xb: np.ndarray) -> float | np.ndarray:
    """Exact W2^2 between the pushforwards of maps with node positions xa, xb.

    The last axis holds the nodes; leading axes are batch axes (broadcast
    between xa and xb), and the result has their shape, a float for one pair.
    """
    # exact integral of the piecewise-linear quantile difference squared
    d = xa - xb
    a, b = d[..., :-1], d[..., 1:]
    dm = 1.0 / (d.shape[-1] - 1)
    q = (dm / 3.0) * np.sum(a ** 2 + a * b + b ** 2, axis=-1)
    return float(q) if q.ndim == 0 else q


def boltzmann_entropy(u: GridDensity, values: np.ndarray) -> np.ndarray:
    """int v log v with the 0 log 0 = 0 convention, for each row v of the
    (..., M) stack `values` of cell values on u's grid: an array of the
    leading shape, each entry equal to the entropy of that row alone."""
    logs = np.log(np.where(values > 0, values, 1.0))
    return u.h * np.sum(np.where(values > 0, values * logs, 0.0), axis=-1)


# --- map <-> density conversions ------------------------------------------

def _spline_coefficients(knots, y):
    """Coefficients of the cubic splines through the rows of y at `knots`.

    Returns a (4, rows, K) array whose entry [j, r, i] multiplies
    (t - knots[i])**(3 - j) on interval i of row r's not-a-knot spline:
    bitwise the `c` of scipy's CubicSpline(knots, y.T) with its last two
    axes swapped.  The tridiagonal system for the knot slopes
    is filled as CubicSpline fills it and solved by the LAPACK gtsv that
    its solve_banded((1, 1)) calls, with the rows as right-hand sides in
    place; the coefficients follow CubicHermiteSpline's operation order.
    """
    # gtsv given a zero-column right-hand side crashes the interpreter
    if y.shape[0] == 0:
        raise ValueError("no spline rows to fit")
    n = knots.size
    dx = np.diff(knots)
    slope = np.diff(y, axis=-1) / dx
    # the sub-, main and super-diagonal, and one right-hand side per row
    dl, d, du = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b = np.empty((y.shape[0], n))
    b[:, 1:-1] = 3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    # not-a-knot ends; the length-1 slices of dx keep scipy's arithmetic
    w = knots[2] - knots[0]
    d[0], du[0] = dx[1], w
    b[:, 0] = ((dx[:1] + 2 * w) * dx[1:2] * slope[:, 0]
               + dx[:1] ** 2 * slope[:, 1]) / w
    w = knots[-1] - knots[-3]
    d[-1], dl[-1] = dx[-2], w
    b[:, -1] = (dx[-1:] ** 2 * slope[:, -2]
                + (2 * w + dx[-1:]) * dx[-2:-1] * slope[:, -1]) / w
    # b.T is Fortran-ordered, so gtsv solves in b without a copy
    s, info = _gtsv(dl, d, du, b.T, 1, 1, 1, 1)[3:]
    if info != 0:
        raise np.linalg.LinAlgError(f"spline slope system: gtsv info {info}")
    s = s.T
    t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1],
                     y[:, :-1]))


def _bracketed_inverse(knots, coefficients, interval, target, start):
    """Entrywise solve of spline(s) = target inside knot interval
    `interval`, for the (4, rows, K) coefficients of `_spline_coefficients`;
    the last three arguments are (rows, n) arrays, `start` the first guess.

    Each interval must bracket its root up to rounding: its spline's value
    at the left knot is at most the target, and at the right knot at least
    the target.  Safeguarded Newton runs in the
    local coordinate t = s - knots[i] of the interval, on the interval's
    four coefficients gathered once: it keeps a sign bracket [a, b] and
    bisects it where a Newton step (slope floored at 1e-14) leaves it.
    An entry stops once its step is at most 4 eps, not on exact
    repetition, which entries cycling in rounding noise never reach, and
    the solve ends when every entry has stopped; each entry's result is
    bitwise what a solve of its own row returns.

    Returns (result, start residual, result residual, iterations), the
    residuals being spline value minus target at the start and at the
    result.
    """
    rows, intervals = coefficients.shape[1:]
    flat = interval + np.arange(rows)[:, None] * intervals
    c0, c1, c2, c3 = (cj.take(flat) for cj in coefficients.reshape(4, -1))
    # the residual's constant term: node minus target
    c3 = c3 - target
    dc0, dc1 = 3.0 * c0, 2.0 * c1
    left = knots.take(interval)
    a, b = np.zeros(interval.shape), np.diff(knots).take(interval)
    t = np.clip(start - left, a, b)
    r = ((c0 * t + c1) * t + c2) * t + c3
    r_start, done = r, np.zeros(t.shape, dtype=bool)
    for n in range(1, BRACKET_ITERATIONS + 1):
        below = r <= 0.0
        a, b = np.where(below, t, a), np.where(below, b, t)
        slope = np.maximum((dc0 * t + dc1) * t + c2, 1e-14)
        newton = t - r / slope
        t_new = np.where((newton >= a) & (newton <= b), newton, 0.5 * (a + b))
        # a finished entry keeps its t, so no entry depends on the others
        t_new = np.where(done, t, t_new)
        step, t = t_new - t, t_new
        r = ((c0 * t + c1) * t + c2) * t + c3
        done |= np.abs(step) <= 4 * np.finfo(float).eps
        if done.all():
            break
    return left + t, r_start, r, n


def reject_zero_plateau(u: GridDensity) -> None:
    """Raise DegenerateQuantileError if two adjacent interior cells of u are
    empty: the quantile map cannot resolve that zero-density plateau."""
    v = u.values
    dead = (v[1:-1] if v.size > 2 else v) <= 0
    if np.any(dead[:-1] & dead[1:]):
        raise DegenerateQuantileError(
            "zero-density plateau wider than one grid cell")


def _checked_nodes(domain: Interval, positions: np.ndarray) -> np.ndarray:
    """Map nodes (the last axis of `positions`) clipped onto domain, once
    every gap exceeds `domain.gap` (else MonotonicityError) and the end
    nodes lie within 1e-12 of the domain (else ConfigurationError)."""
    if not (np.diff(positions) > domain.gap).all():  # a NaN node fails too
        raise MonotonicityError("map positions not increasing above gap")
    if (np.any(positions[..., 0] < domain.lo - 1e-12)
            or np.any(positions[..., -1] > domain.hi + 1e-12)):
        raise ConfigurationError("map positions leave the domain")
    return np.clip(positions, domain.lo, domain.hi)


def map_from_density(u: GridDensity, k: int = 256) -> np.ndarray:
    """Nodes of the quantile map of u at K+1 uniform mass levels.

    The map is the exact quantile of u's P1 reconstruction on its support,
    whose edges are the end nodes: linear through the support's midpoint
    values, constant on its two end half-cells, and renormalized.  Its CDF is quadratic on each piece, so the mass r that
    level j/K still needs in its piece is reached at the stable root
    t = 2r/(a + sqrt(a^2 + 2 slope r)), a the piece's left value.
    """
    if k < 8:
        raise ConfigurationError("need K >= 8 map cells")
    reject_zero_plateau(u)
    support = np.flatnonzero(u.values)
    first, last = support[0], support[-1] + 1
    ends = np.r_[u.edges[first], u.midpoints[first:last], u.edges[last]]
    width = np.diff(ends)
    # the reconstruction's values at the pieces' left and right ends
    left = u.values[np.r_[first, first:last]]
    right = u.values[np.r_[first:last, last - 1]]
    total = np.sum(0.5 * width * (left + right))
    left, right = left / total, right / total
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * width * (left + right))])
    level = np.linspace(0.0, 1.0, k + 1)[1:-1]
    piece = np.searchsorted(cdf, level, "right") - 1
    r = level - cdf[piece]
    a, b = left[piece], (right - left)[piece] / width[piece]
    # a piece ending at an empty cell's midpoint can round a^2 + 2br below
    # 0, and a level on the start of a piece starting there gives r = a = 0
    root = a + np.sqrt(np.maximum(a * a + 2.0 * b * r, 0.0))
    t = np.divide(2.0 * r, root, out=np.zeros_like(r), where=root > 0)
    x = np.concatenate([ends[:1], ends[piece] + t, ends[-1:]])
    gap = u.domain.gap
    if np.any(np.diff(x) <= gap):  # repair with strict minimum spacing
        for i in range(1, x.size):
            x[i] = max(x[i], x[i - 1] + 2 * gap)
        x = np.minimum(x, u.domain.hi)
        for i in range(x.size - 2, -1, -1):
            x[i] = min(x[i], x[i + 1] - 2 * gap)
    return _checked_nodes(u.domain, x)


def densities_from_maps(domain: Interval, positions: np.ndarray,
                        m: int) -> np.ndarray:
    """Pushforward cell values of a block of maps on a uniform M-cell grid.

    Row i of `positions` holds the K+1 nodes of map i on `domain` at the
    mass levels j/K, row i of the result the M cell values of its
    pushforward.  Each quantile function is interpolated by a
    not-a-knot cubic spline in the mass variable (one row of the block's
    `_spline_coefficients`), which passes through the map's nodes, so a
    cell edge between nodes j and j + 1 has a preimage in knot interval j,
    the interval in which the piecewise-linear inverse lands.  The edges are
    inverted there by `_bracketed_inverse`, from that piecewise-linear
    inverse.  Cell values are exact mass differences over the cells.  The
    block is checked once: its nodes by `_checked_nodes`, whose clipped
    nodes are the ones resampled, and its rows for unit mass; a block
    without rows raises ValueError.
    """
    positions = _checked_nodes(domain, positions)
    k = positions.shape[-1] - 1
    first, last = positions[:, :1], positions[:, -1:]
    levels = np.linspace(0.0, 1.0, k + 1)
    edges = np.linspace(domain.lo, domain.hi, m + 1)
    target = np.clip(edges, first, last)
    # the piecewise-linear inverse as a fractional node index, whose floor
    # is the knot interval it lands in (the next one if it rounds up onto
    # a node)
    nodes = np.arange(k + 1.0)
    frac = np.array([np.interp(edges, p, nodes) for p in positions])
    interval = np.minimum(frac.astype(np.intp), k - 1)
    s = _bracketed_inverse(levels, _spline_coefficients(levels, positions),
                           interval, target, frac / k)[0]
    # pin levels outside the map's range: a non-monotone spline can offer a
    # wrong-branch preimage with a smaller residual at the walls
    s = np.where(edges <= first, 0.0, s)
    s = np.where(edges >= last, 1.0, s)
    s = np.maximum.accumulate(np.clip(s, 0.0, 1.0), axis=-1)
    h = domain.length / m
    vals = np.maximum(np.diff(s, axis=-1) / h, 0.0)
    # a non-finite entry makes its row's mass non-finite
    if not np.all(np.abs(vals.sum(axis=-1) * h - 1.0) <= MASS_TOL):
        raise ConfigurationError("pushforward mass differs from 1")
    return vals
