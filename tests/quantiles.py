"""Quantile functions and W2 of grid densities: the tests' oracle for the
transport distance, independent of the solver's map nodes."""

import numpy as np

from gradflow1d import ConfigurationError

W2_LEVELS = 4097        # mass-grid resolution for quantile-based distances


def quantile(u, levels):
    """Generalized inverse CDF of a GridDensity at the given mass levels.

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
