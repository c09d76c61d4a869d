"""The weak-form operator N_f on the grid: an oracle for the node gradient.

In the weak formulation, d/dt int u phi = -int N_f(u, phi) with

    N_f(v, phi) = (f(v))'' (f(v))' phi' + v f'(v) (f(v))'' phi'',

which the map-node form of `check_discrete_weak_f` evaluates as
<grad Phi(x), phi'(x)> on the nodes of u's quantile map.  Here N_f is
taken on u's grid by central differences with the reflecting closure.
"""

from typing import Callable, NamedTuple

import numpy as np

from gradflow1d.diagnostics import U_FLOOR, d2


class TestFunction(NamedTuple):
    """A spatial test function phi and its first two derivatives."""

    __test__ = False  # not a pytest collection target

    f: Callable
    d1: Callable
    d2: Callable


def cosine(lo, hi, k):
    """cos(k pi (x - lo)/L), Neumann-admissible for integer k."""
    om = k * np.pi / (hi - lo)
    return TestFunction(f=lambda x: np.cos(om * (x - lo)),
                        d1=lambda x: -om * np.sin(om * (x - lo)),
                        d2=lambda x: -om ** 2 * np.cos(om * (x - lo)))


def d1(w, h):
    """Central first difference with even (reflecting) endpoint extension."""
    wg = np.concatenate([w[..., :1], w, w[..., -1:]], axis=-1)
    return (wg[..., 2:] - wg[..., :-2]) / (2 * h)


def nf_density(f, u, phi):
    """N_f(u, phi) at the cell midpoints of the grid density u; v f'(v) is
    evaluated at densities clipped below at U_FLOOR, where it stays finite
    because z f'(z) has a limit at 0."""
    v = np.maximum(u.values, U_FLOOR)
    h, x = u.h, u.midpoints
    w = f.f(v)
    wp, wpp = d1(w, h), d2(w, h)
    return wpp * wp * phi.d1(x) + v * f.f1(v) * wpp * phi.d2(x)


def weak_operator(f, u, phi):
    """int N_f(u, phi): the midpoint sum of `nf_density`."""
    return float(u.h * np.sum(nf_density(f, u, phi)))
