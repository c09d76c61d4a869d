"""CDFs, quantile functions and W2 of grid densities: the tests' oracles
for the transport distance and the quantile map, independent of the
solver's map nodes."""

import numpy as np

from gradflow1d import ConfigurationError

W2_LEVELS = 4097        # mass-grid resolution for quantile-based distances


def cdf_at_edges(u):
    """The piecewise-constant CDF of a GridDensity at its grid edges."""
    c = np.concatenate([[0.0], np.cumsum(u.values) * u.h])
    # snap rounding-level shortfall to 1 so a trailing vacuum stays a
    # genuinely flat run
    c[c >= 1.0 - 1e-12] = 1.0
    c[-1] = 1.0
    return c


def prefix_sums(terms):
    """0 and the running sums of terms, compensated (Neumaier) so that each
    is within about an ulp of the exact sum, where np.cumsum drifts."""
    out, s, c = [0.0], 0.0, 0.0
    for t in terms.tolist():
        total = s + t
        c += (s - total) + t if abs(s) >= abs(t) else (t - total) + s
        s = total
        out.append(s + c)
    return np.array(out)


def p1_cdf(u, x):
    """The CDF and the density at the points x of u's P1 reconstruction on
    its support: linear between the midpoints of the support's cells
    through their values, constant on its two end half-cells, of unit mass.
    The CDF sums trapezoids up to the knot below each point (`prefix_sums`),
    plus the partial one."""
    nonzero = np.flatnonzero(u.values)
    first, last = nonzero[0], nonzero[-1] + 1
    knots = np.r_[u.edges[first], u.midpoints[first:last], u.edges[last]]
    y = u.values[np.r_[first, first:last, last - 1]]
    trapezoids = prefix_sums(np.diff(knots) * (y[:-1] + y[1:]) / 2)
    x = np.clip(x, knots[0], knots[-1])
    i = np.clip(np.searchsorted(knots, x, "right") - 1, 0, knots.size - 2)
    density = np.interp(x, knots, y)
    partial = (x - knots[i]) * (y[i] + density) / 2
    return ((trapezoids[i] + partial) / trapezoids[-1],
            density / trapezoids[-1])


def quantile(u, levels):
    """Generalized inverse CDF of a GridDensity at the given mass levels.

    The CDF is piecewise linear on the grid; quantiles of zero-density
    plateaus resolve to the plateau's left edge.
    """
    s = np.asarray(levels, dtype=float)
    if np.any(s < 0) or np.any(s > 1):
        raise ConfigurationError("quantile level outside [0, 1]")
    cdf = cdf_at_edges(u)
    # keep only the first edge of every flat CDF run (left-edge convention);
    # for a leading vacuum the level-0 anchor is the support infimum instead
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    nz = int(np.argmax(cdf > 0))
    if nz > 1:
        keep[:nz - 1] = False
        keep[nz - 1] = True
    return np.interp(s, cdf[keep], u.edges[keep])


def wasserstein2(u, v, n_levels=W2_LEVELS):
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


def mass(u):
    """The midpoint-rule mass of a GridDensity."""
    return float(u.values.sum() * u.h)
