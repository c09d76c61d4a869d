"""Probability densities on an interval and exact 1D optimal transport.

Densities live on a uniform midpoint grid; transport maps are monotone node
positions at uniform mass levels (the quantile parametrization, in which the
quadratic Wasserstein distance is a plain weighted L2 distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

MASS_TOL = 1e-12
GAP_REL = 1e-9          # minimum node spacing, relative to domain length
W2_LEVELS = 4097        # mass-grid resolution for quantile-based distances
# map nodes per batched call of `consecutive_distances`: 2^15 doubles keep
# the call's temporaries in cache (at K = 1024 on a 2-core x86 host, 100
# consecutive pairs took 1.1 ms in one call and 0.52 ms in blocks of 32)
DIST_BLOCK = 1 << 15


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
        if abs(v.sum() * (self.domain.length / v.size) - 1.0) > MASS_TOL:
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

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.h)

    def cdf_at_edges(self) -> np.ndarray:
        c = np.concatenate([[0.0], np.cumsum(self.values) * self.h])
        # snap rounding-level shortfall to 1 so a trailing vacuum stays a
        # genuinely flat run for the quantile's left-edge convention
        c[c >= 1.0 - 1e-12] = 1.0
        c[-1] = 1.0
        return c

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


@dataclass
class TransportMap:
    """Monotone node positions X(s_i) at uniform mass levels s_i = i/K."""

    domain: Interval
    positions: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        if x.ndim != 1 or x.size < 9:
            raise ConfigurationError("need at least 9 map nodes (K >= 8)")
        if not (np.diff(x) > self.domain.gap).all():  # a NaN node fails too
            raise MonotonicityError("map positions not increasing above gap")
        if x[0] < self.domain.lo - 1e-12 or x[-1] > self.domain.hi + 1e-12:
            raise ConfigurationError("map positions leave the domain")
        self.positions = np.clip(x, self.domain.lo, self.domain.hi)


# --- quantiles and distances ---------------------------------------------

def quantile(u: GridDensity, levels) -> np.ndarray:
    """Generalized inverse CDF at the given mass levels.

    The CDF is piecewise linear on the grid; quantiles of zero-density
    plateaus resolve to the plateau's left edge.
    """
    s = np.asarray(levels, dtype=float)
    if np.any(s < 0) or np.any(s > 1):
        raise ConfigurationError("quantile level outside [0, 1]")
    cdf = u.cdf_at_edges()
    # keep only the first edge of every flat CDF run (left-edge convention);
    # for a leading vacuum the level-0 anchor is the support infimum instead
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    nz = int(np.argmax(cdf > 0))
    if nz > 1:
        keep[:nz - 1] = False
        keep[nz - 1] = True
    return np.interp(s, cdf[keep], u.edges[keep])


def wasserstein2(u: GridDensity, v: GridDensity,
                 n_levels: int = W2_LEVELS) -> float:
    """W2 as the L2 distance of quantile functions (trapezoid in mass).

    Using one shared level grid for every pair makes symmetry and the
    triangle inequality exact at the discrete level.
    """
    if u.domain != v.domain:
        raise ConfigurationError("densities live on different domains")
    s = np.linspace(0.0, 1.0, n_levels)
    d = quantile(u, s) - quantile(v, s)
    w = np.full(n_levels, 1.0 / (n_levels - 1))
    w[0] = w[-1] = 0.5 / (n_levels - 1)
    return float(np.sqrt(np.sum(w * d * d)))


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


def consecutive_distances(positions: np.ndarray) -> np.ndarray:
    """Exact W2 between consecutive rows of a stack of map nodes.

    Entry k is sqrt(w2sq_between_maps(positions[k + 1], positions[k])),
    bitwise; the pairs are evaluated in batched calls over blocks of about
    DIST_BLOCK nodes.
    """
    prev, nxt = positions[:-1], positions[1:]
    out = np.empty(len(nxt))
    block = max(DIST_BLOCK // positions.shape[-1], 1)
    for i in range(0, len(out), block):
        out[i:i + block] = w2sq_between_maps(nxt[i:i + block],
                                             prev[i:i + block])
    return np.sqrt(out)


def boltzmann_entropy(u: GridDensity, values: np.ndarray | None = None):
    """int u log u with the 0 log 0 = 0 convention.

    `values`, if given, is a (..., M) stack of cell values on u's grid,
    taken in place of u.values: the result is then an array of the leading
    shape, each entry equal to the entropy of that row alone.
    """
    v = u.values if values is None else values
    e = u.h * np.sum(np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0),
                     axis=-1)
    return float(e) if values is None else e


# --- map <-> density conversions ------------------------------------------

class _SplineColumns:
    """Value and slope of each column of a cubic spline at its own points.

    Stands in for `PPoly.__call__` on the spline's coefficients and returns
    bitwise what it returns: the interval lookup (closed on the right at the
    last breakpoint, extrapolating beyond both ends) is done once for the
    value and the slope, and each coefficient is gathered with `take` from a
    contiguous (column, interval) array.  The power sums keep scipy's
    operation order.
    """

    def __init__(self, spline):
        self.x = spline.x
        self.n = self.x.size - 1
        c = spline.c.reshape(4, self.n, -1)
        # row j holds coefficient j of every (column, interval), flattened
        self.c = np.ascontiguousarray(c.transpose(0, 2, 1)).reshape(4, -1)
        cols = c.shape[2]
        self.offset = np.arange(cols)[:, None] * self.n if cols > 1 else 0

    def __call__(self, t):
        """(value, slope) at t, one row of points per column; a single
        column also takes a 1-D array."""
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.n - 1)
        s = t - self.x.take(i)
        c0, c1, c2, c3 = (cj.take(i + self.offset) for cj in self.c)
        s2 = s * s
        return (c3 + c2 * s + c1 * s2 + c0 * (s2 * s),
                c2 + (c1 * s) * 2 + (c0 * s2) * 3)


def _newton_inverse(spline, target, x, lo, hi, slope_floor, sweeps):
    """Entrywise solve of value(x) = target by clipped Newton sweeps, where
    spline(x) returns (value, slope); x may have any shape.

    Returns bitwise what `sweeps` plain sweeps from x would return. A sweep
    updates each entry from its own value alone, so once an entry repeats
    the value it had p <= 4 sweeps ago (a fixed point, or a cycle in
    rounding noise) its value after the last sweep is already known; the
    sweeps stop when every entry has done so.
    """
    hist = [x]                              # the last five iterates
    for n in range(1, sweeps + 1):
        y = hist[-1]
        value, slope = spline(y)
        y = np.clip(y - (value - target) / np.maximum(slope, slope_floor),
                    lo, hi)
        hist = hist[-4:] + [y]
        # compare bit patterns, so signed zeros and NaNs repeat exactly too
        bits = y.view(np.int64)
        period = np.zeros(y.shape, dtype=int)
        for p in range(len(hist) - 1, 0, -1):
            period[hist[-1 - p].view(np.int64) == bits] = p
        if period.all():
            # period p from sweep n - p on, so sweep `sweeps` repeats
            # sweep n - back with back = p - (sweeps - n) mod p
            back = period - (sweeps - n) % period
            return np.take_along_axis(np.array(hist),
                                      (len(hist) - 1 - back)[None], 0)[0]
    return hist[-1]


def reject_zero_plateau(u: GridDensity) -> None:
    """Raise DegenerateQuantileError if two adjacent interior cells of u are
    empty: the quantile map cannot resolve that zero-density plateau."""
    v = u.values
    dead = (v[1:-1] if v.size > 2 else v) <= 0
    if np.any(dead[:-1] & dead[1:]):
        raise DegenerateQuantileError(
            "zero-density plateau wider than one grid cell")


def map_from_density(u: GridDensity, k: int = 256) -> TransportMap:
    """Quantile map of u at K+1 uniform mass levels.

    The CDF is interpolated by a clamped cubic spline (end slopes equal to
    the boundary density values) and inverted by 50 safeguarded Newton
    sweeps; this keeps second derivatives of the represented density
    meaningful, which the piecewise-linear inverse would destroy.  The
    sweeps stop once every level has settled (see `_newton_inverse`) and
    still return the 50-sweep result bitwise.
    """
    if k < 8:
        raise ConfigurationError("need K >= 8 map cells")
    reject_zero_plateau(u)
    v = u.values
    cdf = u.cdf_at_edges()
    spline = _SplineColumns(
        CubicSpline(u.edges, cdf, bc_type=((1, v[0]), (1, v[-1]))))
    levels = np.linspace(0.0, 1.0, k + 1)
    linear = np.interp(levels, cdf, u.edges)
    lo, hi = u.domain.lo, u.domain.hi
    x = _newton_inverse(spline, levels, linear, lo, hi, 1e-13, 50)
    bad = (np.abs(spline(x)[0] - levels)
           > np.abs(spline(linear)[0] - levels) + 1e-15)
    x = np.where(bad, linear, x)
    # pin the ends to the support edges of the sampled density
    x[0], x[-1] = u.edges[np.argmax(v > 0)], u.edges[v.size - np.argmax(v[::-1] > 0)]
    x = np.maximum.accumulate(np.clip(x, lo, hi))
    gap = u.domain.gap
    if np.any(np.diff(x) <= gap):  # repair with strict minimum spacing
        for i in range(1, x.size):
            x[i] = max(x[i], x[i - 1] + 2 * gap)
        x = np.minimum(x, hi)
        for i in range(x.size - 2, -1, -1):
            x[i] = min(x[i], x[i + 1] - 2 * gap)
    return TransportMap(u.domain, x)


def densities_from_maps(domain: Interval, positions: np.ndarray,
                        m: int | None = None) -> np.ndarray:
    """Pushforward cell values of a block of maps on a uniform M-cell grid.

    Row i of `positions` holds the K+1 nodes of map i on `domain` at the
    mass levels j/K, row i of the result the M (default K) cell values of
    its pushforward.  Each quantile function is interpolated by a cubic
    spline in the mass variable (one column of a single multi-column spline)
    and inverted at the cell edges by 30 safeguarded Newton sweeps, which
    stop once every edge of the block has settled (see `_newton_inverse`)
    and still return the 30-sweep result bitwise.  Cell values are exact
    mass differences over the cells.  The block is checked once for what
    `TransportMap` and `GridDensity` check per object: nodes increasing by
    more than the gap and inside the domain, rows of unit mass.
    """
    k = positions.shape[-1] - 1
    m = k if m is None else m
    if not (np.diff(positions) > domain.gap).all():  # a NaN node fails too
        raise MonotonicityError("map positions not increasing above gap")
    first, last = positions[:, :1], positions[:, -1:]
    if np.any(first < domain.lo - 1e-12) or np.any(last > domain.hi + 1e-12):
        raise ConfigurationError("map positions leave the domain")
    levels = np.linspace(0.0, 1.0, k + 1)
    spline = _SplineColumns(CubicSpline(levels, positions.T))
    edges = np.linspace(domain.lo, domain.hi, m + 1)
    target = np.clip(edges, first, last)
    linear = np.array([np.interp(edges, p, levels) for p in positions])
    s = _newton_inverse(spline, target, linear, 0.0, 1.0, 1e-14, 30)
    # where the spline is non-monotone (rough maps) Newton can run away;
    # keep the piecewise-linear inverse wherever it has a smaller residual
    bad = (np.abs(spline(s)[0] - target)
           > np.abs(spline(linear)[0] - target) + 1e-15)
    s = np.where(bad, linear, s)
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


def density_from_map(x: TransportMap, m: int | None = None) -> GridDensity:
    """Pushforward density of one map on a uniform M-cell grid: the block
    of one row of `densities_from_maps`."""
    return GridDensity(x.domain,
                       densities_from_maps(x.domain, x.positions[None], m)[0])
