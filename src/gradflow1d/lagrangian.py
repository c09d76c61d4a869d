"""Energy integrands, mobilities, test functions and assumption validators.

Two energy classes are covered: convex Lagrangians Phi(u) = int F(x, u, u')
and concave-mobility energies Phi(u) = 1/2 int |(f o u)'|^2.  Both come with
sampling-based validators for their structural assumptions.  The
certificates run every mobility, thin film included as the identity, through
the mobility class and its weak-form operator N_f; the Lagrangian validator
checks that thin film also meets the convex-Lagrangian Assumption (A).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import CertificateReport
from .transport import ConfigurationError, GridDensity

U_FLOOR = 1e-12  # density clip before mobility derivatives near vacuum


# --- finite-difference stencils (reflecting Neumann closure) ---------------
# Each works along the last axis, so a (states x M) stack is differenced in
# one array pass; every row equals the helper applied to that row alone.

def d1(w: np.ndarray, h: float) -> np.ndarray:
    """Central first difference with even (reflecting) endpoint extension."""
    wg = np.concatenate([w[..., :1], w, w[..., -1:]], axis=-1)
    return (wg[..., 2:] - wg[..., :-2]) / (2 * h)


def d2(w: np.ndarray, h: float) -> np.ndarray:
    """Central second difference with even endpoint extension."""
    wg = np.concatenate([w[..., :1], w, w[..., -1:]], axis=-1)
    return (wg[..., 2:] - 2 * wg[..., 1:-1] + wg[..., :-2]) / h ** 2


def staggered_gradient_quadrature(w: np.ndarray, h: float):
    """1/2 int |w'|^2 using interface differences (zero at the walls): a
    float, or an array of the leading shape for a stack of rows.

    With this stencil the discrete integration by parts against the 3-point
    Neumann Laplacian is exact, which the dissipation certificates need.
    """
    dw = np.diff(w) / h
    q = 0.5 * h * np.sum(dw * dw, axis=-1)
    return float(q) if q.ndim == 0 else q


# --- test functions and temporal weights -----------------------------------

@dataclass
class TestFunction:
    """Smooth spatial test function with Neumann-admissible derivative."""

    __test__ = False  # not a pytest collection target

    domain_lo: float
    domain_hi: float
    f: Callable
    d1: Callable
    d2: Callable

    def __post_init__(self):
        lim = 1e-9 * max(1.0, abs(self.d1(0.5 * (self.domain_lo + self.domain_hi))))
        for x in (self.domain_lo, self.domain_hi):
            if abs(self.d1(x)) > lim:
                raise ConfigurationError("test function derivative must vanish "
                                         "at both endpoints")

    def sup_d2(self) -> float:
        x = np.linspace(self.domain_lo, self.domain_hi, 2001)
        return float(np.max(np.abs(self.d2(x))))

    @classmethod
    def cosine(cls, lo: float, hi: float, k: int = 2,
               amplitude: float = 1.0) -> "TestFunction":
        """amplitude * cos(k pi (x-lo)/L): Neumann-admissible for integer k."""
        om = k * np.pi / (hi - lo)
        a = amplitude
        return cls(lo, hi,
                   f=lambda x: a * np.cos(om * (x - lo)),
                   d1=lambda x: -a * om * np.sin(om * (x - lo)),
                   d2=lambda x: -a * om ** 2 * np.cos(om * (x - lo)))

    @classmethod
    def constant(cls, lo: float, hi: float, value: float = 1.0) -> "TestFunction":
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return cls(lo, hi, f=lambda x: np.full_like(np.asarray(x, float), value),
                   d1=z, d2=z)


@dataclass
class TemporalWeight:
    """Smooth weight eta on [0, inf) with compact support in (0, inf).

    f takes a float or an array of times (elementwise)."""

    f: Callable
    support_lo: float
    support_hi: float
    c0_norm: float

    def __post_init__(self):
        if not 0.0 < self.support_lo < self.support_hi:
            raise ConfigurationError("weight support must be compact in (0, inf)")
        if abs(self.f(0.0)) > 0 or abs(self.f(self.support_hi + 1e-12)) > 1e-300:
            raise ConfigurationError("weight must vanish at 0 and past support")

    def __call__(self, t):
        return self.f(t)

    @classmethod
    def smooth_bump(cls, lo: float, hi: float) -> "TemporalWeight":
        """exp(-1/(1-y^2)) * e rescaled to the support (lo, hi), peak 1."""
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)

        def f(t):
            y = (np.asarray(t, dtype=float) - c) / r
            inside = np.abs(y) < 1
            out = np.where(inside,
                           np.exp(1.0 - 1.0 / np.maximum(1 - y * y, 1e-300)), 0.0)
            return out if out.ndim else float(out)

        return cls(f=f, support_lo=lo, support_hi=hi, c0_norm=1.0)


# --- specs ----------------------------------------------------------------

@dataclass
class LagrangianSpec:
    """Evaluator bundle for F(x, z, p) with declared structural constants.

    Evaluators are vectorized over numpy arrays.  `hessian(x, z, p)` returns
    the 3x3 (or batched ...x3x3) second-derivative matrix in (x, z, p).
    """

    name: str
    F: Callable
    F_x: Callable
    F_z: Callable
    F_p: Callable
    hessian: Callable
    gamma: float
    c: float
    C: float
    D: float

    @classmethod
    def thin_film(cls) -> "LagrangianSpec":
        zeros = lambda x, z, p: np.zeros_like(np.asarray(p, dtype=float))

        def hess(x, z, p):
            p = np.asarray(p, dtype=float)
            H = np.zeros(p.shape + (3, 3))
            H[..., 2, 2] = 1.0
            return H

        return cls(name="thin_film",
                   F=lambda x, z, p: 0.5 * np.asarray(p, float) ** 2,
                   F_x=zeros, F_z=zeros,
                   F_p=lambda x, z, p: np.asarray(p, dtype=float),
                   hessian=hess, gamma=1.0, c=0.5, C=0.5, D=1.0)

    @classmethod
    def from_mobility(cls, f: "MobilitySpec") -> "LagrangianSpec":
        """F(x, z, p) = 1/2 f'(z)^2 p^2 (declared constants are nominal)."""
        def hess(x, z, p):
            z = np.asarray(z, dtype=float)
            p = np.asarray(p, dtype=float)
            f1, f2, f3 = f.f1(z), f.f2(z), f.f3(z)
            H = np.zeros(np.broadcast(z, p).shape + (3, 3))
            H[..., 1, 1] = (f2 ** 2 + f1 * f3) * p ** 2
            H[..., 1, 2] = H[..., 2, 1] = 2.0 * f1 * f2 * p
            H[..., 2, 2] = f1 ** 2
            return H

        return cls(name=f"mobility[{f.name}]",
                   F=lambda x, z, p: 0.5 * f.f1(z) ** 2 * np.asarray(p, float) ** 2,
                   F_x=lambda x, z, p: np.zeros_like(np.asarray(p, float)),
                   F_z=lambda x, z, p: f.f1(z) * f.f2(z) * np.asarray(p, float) ** 2,
                   F_p=lambda x, z, p: f.f1(z) ** 2 * np.asarray(p, float),
                   hessian=hess, gamma=1.0, c=0.0, C=1.0, D=1.0)


@dataclass
class MobilitySpec:
    """Concave mobility f on (0, inf) with declared constants."""

    name: str
    f: Callable
    f1: Callable
    f2: Callable
    f3: Callable
    alpha: float
    C_lower: float
    delta_bar: float

    @classmethod
    def sqrt_mobility(cls) -> "MobilitySpec":
        return cls.power_mobility(1.0, 0.5, name="sqrt")

    @classmethod
    def identity(cls) -> "MobilitySpec":
        one = lambda z: np.ones_like(np.asarray(z, dtype=float))
        zero = lambda z: np.zeros_like(np.asarray(z, dtype=float))
        return cls(name="identity", f=lambda z: np.asarray(z, dtype=float),
                   f1=one, f2=zero, f3=zero, alpha=1.0, C_lower=1.0,
                   delta_bar=0.0)

    @classmethod
    def power_mobility(cls, C: float, alpha: float,
                       name: str | None = None) -> "MobilitySpec":
        """f(z) = C z^alpha with alpha in (0, 1)."""
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("power mobility exponent must be in (0, 1]")
        a = alpha
        # f''' f' / f''^2 = (2 - a) / (1 - a); the ratio bound then caps
        # delta_bar at (2-a)/(1-a) - 2 (for d = 1, see dissipation_constants)
        dbar = (2 - a) / (1 - a) - 2.0 if a < 1 else 0.0
        return cls(name=name or f"power[{C}*z^{alpha}]",
                   f=lambda z: C * np.asarray(z, float) ** a,
                   f1=lambda z: C * a * np.asarray(z, float) ** (a - 1),
                   f2=lambda z: C * a * (a - 1) * np.asarray(z, float) ** (a - 2),
                   f3=lambda z: C * a * (a - 1) * (a - 2) * np.asarray(z, float) ** (a - 3),
                   alpha=a, C_lower=C * a, delta_bar=dbar)


# --- energies -------------------------------------------------------------

def energy(F: LagrangianSpec, u: GridDensity) -> float:
    """int F(x, u, u') with interface-staggered gradient quadrature.

    z is averaged to the interfaces; the two boundary interfaces carry p = 0
    (the Neumann closure) and half weight.
    """
    v = u.values
    if not np.all(np.isfinite(v)):
        return float("inf")
    h = u.h
    p = np.diff(v) / h
    zi = 0.5 * (v[:-1] + v[1:])
    xi = u.edges[1:-1]
    total = h * np.sum(F.F(xi, zi, p))
    total += 0.5 * h * (F.F(u.edges[0], v[0], 0.0) + F.F(u.edges[-1], v[-1], 0.0))
    return float(total)


def energy_mobility(f: MobilitySpec, u: GridDensity) -> float:
    """1/2 int |(f o u)'|^2 with the same staggered stencil as energy()."""
    v = np.maximum(u.values, 0.0)
    w = f.f(v)
    return staggered_gradient_quadrature(w, u.h)


# --- weak-form operators --------------------------------------------------

def nf_density(f: MobilitySpec, u: GridDensity, phi: TestFunction,
               values: np.ndarray | None = None) -> np.ndarray:
    """N_f(u, phi) = (f(u))'' (f(u))' phi' + u f'(u) (f(u))'' phi'' at the
    cell midpoints.

    `values`, if given, is a (..., M) stack of cell values on u's grid,
    taken in place of u.values; each row is then the density of that row.
    u f'(u) is evaluated at densities clipped below at U_FLOOR; the product
    stays finite because z f'(z) has a limit at 0.
    """
    v = np.maximum(u.values if values is None else values, U_FLOOR)
    h = u.h
    x = u.midpoints
    w = f.f(v)
    wp, wpp = d1(w, h), d2(w, h)
    return wpp * wp * phi.d1(x) + v * f.f1(v) * wpp * phi.d2(x)


def weak_operator_Nf(f: MobilitySpec, u: GridDensity,
                     phi: TestFunction) -> float:
    """int N_f(u, phi): the midpoint sum of `nf_density`."""
    return float(u.h * np.sum(nf_density(f, u, phi)))


# --- assumption validators ------------------------------------------------

def _halton(n: int, dim: int) -> np.ndarray:
    """First n points of the scrambled Halton sequence, bitwise equal to
    scipy.stats.qmc.Halton(d=dim, seed=0).random(n) (Owen's digit
    permutations), in numpy alone: importing scipy.stats takes ~0.5 s."""
    rng = np.random.default_rng(0)
    primes = (b for b in itertools.count(2) if all(b % d for d in range(2, b)))
    out = np.zeros((n, dim))
    for col, b in zip(range(dim), primes):
        q, weight = np.arange(n), 1.0 / b
        # one permutation per digit while b**-digit still shows next to 1.0
        for _ in range(math.ceil(54 / math.log2(b)) - 1):
            out[:, col] += rng.permutation(b)[q % b] * weight
            weight /= b     # not b**-(digit+1): that is 1 ulp off
            q //= b
    return out


def _schur_pi_form(H: np.ndarray) -> np.ndarray:
    """Exact min of each quadratic form H (batched ...x3x3) over directions
    with pi = 1: the Schur complement of the (x, z) block, by least squares
    where the block is singular."""
    b = H[..., :2, 2:]
    # rcond = 2 eps is the cutoff lstsq(rcond=None) uses for 2x2 systems
    best = np.linalg.pinv(H[..., :2, :2], rcond=2 * np.finfo(float).eps) @ -b
    dirs = np.concatenate([best, np.ones_like(b[..., :1, :])], axis=-2)
    return np.einsum("...ji,...jk,...ki->...", dirs, H, dirs)


def validate_assumption_A(F: LagrangianSpec, x_range=(0.0, 1.0),
                          z_range=(1e-3, 4.0), p_range=(-8.0, 8.0),
                          n_samples: int = 10_000,
                          seed: int = 0) -> CertificateReport:
    """Sampling check of the convex-Lagrangian structure assumptions.

    Checks radial symmetry F(x,z,p) = F(x,z,-p) and monotone radial slope
    p F_p >= 0; the two-sided growth bound c p^2 <= F <= C (p^2 + 1); the
    derivative bounds |F_x|, z |F_z|, |F_p|^2 <= D (p^2 + 1); and the Hessian
    lower bound D2F[(xi,zeta,pi)] >= gamma pi^2 along random directions.
    Worst relative margin is reported; negative margin means a violation.
    """
    rng = np.random.default_rng(seed)
    q = _halton(n_samples, 3)
    x = x_range[0] + q[:, 0] * (x_range[1] - x_range[0])
    z = z_range[0] + q[:, 1] * (z_range[1] - z_range[0])
    p = p_range[0] + q[:, 2] * (p_range[1] - p_range[0])

    fv = F.F(x, z, p)
    scale = np.maximum(np.abs(fv), 1.0)
    margins = {}
    margins["radial_symmetry"] = -np.max(np.abs(fv - F.F(x, z, -p)) / scale)
    margins["radial_monotone"] = np.min(p * F.F_p(x, z, p)) / np.max(scale)
    growth = p * p + 1.0
    margins["lower_bound"] = np.min((fv - F.c * p * p) / growth)
    margins["upper_bound"] = np.min((F.C * growth - fv) / growth)
    margins["Fx_bound"] = np.min((F.D * growth - np.abs(F.F_x(x, z, p))) / growth)
    margins["zFz_bound"] = np.min((F.D * growth - z * np.abs(F.F_z(x, z, p))) / growth)
    margins["Fp_bound"] = np.min((F.D * growth - F.F_p(x, z, p) ** 2) / growth)

    H = F.hessian(x, z, p)
    sym = np.max(np.abs(H - np.swapaxes(H, -1, -2)))
    margins["hessian_symmetry"] = -sym / max(np.max(np.abs(H)), 1.0)
    d = rng.standard_normal((n_samples, 3))
    quad = np.einsum("ni,nij,nj->n", d, H, d)
    pi2 = d[:, 2] ** 2
    psd = np.min(quad / np.maximum(np.einsum("ni,ni->n", d, d), 1e-12))
    # random sampling alone misses degenerate directions when the (x, z)
    # block entries are large
    gamma_obs = float(np.min(_schur_pi_form(H)))
    margins["hessian_gamma"] = min(
        (gamma_obs - F.gamma) / max(F.gamma, 1.0), float(psd))

    worst_key = min(margins, key=margins.get)
    worst = float(margins[worst_key])
    return CertificateReport(
        name="assumption_lagrangian", lhs=-worst, rhs=0.0, tolerance=1e-9,
        context={"worst_clause": worst_key,
                 "margins": {k: float(v) for k, v in margins.items()},
                 "gamma_observed": gamma_obs, "n_samples": n_samples})


def validate_assumption_f(f: MobilitySpec, dimension: int = 1,
                          z_min: float = 1e-8, z_max: float = 4.0,
                          n_samples: int = 10_000) -> CertificateReport:
    """Sampling check of the concave-mobility structure assumptions.

    Checks f(0+) = 0, strict concavity, the admissible exponent window,
    the lower bound f' >= C z^(alpha-1), stabilization of z f'(z) as z -> 0,
    the third-derivative ratio bound f''' f' / f''^2 >= delta_bar + 1 - d/2
    + sqrt(d^2 + 8 d)/2, and the derived growth bounds
    (a) f(z) >= (C/alpha) z^alpha for z <= 1, (b) f(z) <= C0 (z + 1),
    (c) z f'(z) <= C1 (f(z) + 1).
    """
    z = np.geomspace(z_min, z_max, n_samples)
    f0, f1v, f2v, f3v = f.f(z), f.f1(z), f.f2(z), f.f3(z)
    scale = np.maximum(np.abs(f0), 1.0)
    margins = {}
    # f(0+) = 0: along z -> 0 the values keep shrinking (ratio over a decade
    # bounded away from 1, which would indicate a positive limit)
    ratio0 = abs(float(f.f(z_min))) / max(abs(float(f.f(z_min * 10))), 1e-300)
    margins["f_vanishes_at_0"] = 0.99 - ratio0
    f2_scale = float(np.max(np.abs(f2v)))
    margins["concavity"] = np.min(-f2v) / f2_scale if f2_scale > 0 else -1.0
    amin = alpha_window(dimension)
    margins["alpha_window"] = min(f.alpha - amin, 1.0 - f.alpha + 1e-15) \
        if f.alpha <= 1.0 else -1.0
    margins["fprime_lower"] = np.min((f1v - f.C_lower * z ** (f.alpha - 1))
                                     / np.maximum(f1v, 1e-300))

    # existence of lim z f'(z): stabilization across a decade near 0,
    # measured against the global scale of z f'(z) (the limit value itself
    # is not prescribed)
    zz = np.geomspace(z_min, z_min * 10, 16)
    g = zz * f.f1(zz)
    g_scale = max(float(np.max(np.abs(z * f1v))), 1e-300)
    margins["zfprime_limit"] = 0.05 - float(np.ptp(g)) / g_scale

    # the declared delta_bar is calibrated to the solver dimension (1); for
    # other d the check is existence of some positive delta_bar
    dbar = f.delta_bar if dimension == 1 else 0.0
    required = dbar + 1.0 - dimension / 2.0 + 0.5 * np.sqrt(
        dimension ** 2 + 8.0 * dimension)
    ratio = f3v * f1v / np.maximum(f2v ** 2, 1e-300)
    margins["third_derivative_ratio"] = float(np.min(ratio) - required) \
        / max(abs(required), 1.0)

    small = z <= 1.0
    if np.any(small):
        margins["growth_a"] = np.min((f0[small] - (f.C_lower / f.alpha)
                                      * z[small] ** f.alpha) / scale[small])
    c0 = float(np.max(f0 / (z + 1.0)))
    c1 = float(np.max(z * f1v / (f0 + 1.0)))
    margins["growth_b_finite"] = 1.0 if np.isfinite(c0) else -1.0
    margins["growth_c_finite"] = 1.0 if np.isfinite(c1) else -1.0

    worst_key = min(margins, key=margins.get)
    worst = float(margins[worst_key])
    return CertificateReport(
        name="assumption_mobility", lhs=-worst, rhs=0.0, tolerance=1e-9,
        context={"worst_clause": worst_key,
                 "margins": {k: float(v) for k, v in margins.items()},
                 "C0": c0, "C1": c1, "dimension": dimension})


def alpha_window(dimension: int) -> float:
    """Open lower endpoint of the admissible power-mobility exponent window,
    3/4 - sqrt(1 + 8/d)/4; the window is (alpha_min, 1]."""
    if dimension < 1:
        raise ConfigurationError("dimension must be >= 1")
    return 0.75 - 0.25 * np.sqrt(1.0 + 8.0 / dimension)


def dissipation_constants(f: MobilitySpec, dimension: int = 1) -> tuple[float, float]:
    """(chi, delta) for the mobility-case dissipation estimate.

    chi = sqrt(d / (d + 8)); delta is the largest value in (0, 1] keeping
    delta_bar - delta (delta_bar + 1 - d/2 + sqrt(d^2 + 8 d)/2 - 2) >= 0,
    in closed form, since the condition is linear in delta, and then halved
    as a safety margin.  A linear mobility f(z) = C z (thin film) has
    delta = 1: there d/dt Ent = -||(f o u)''||^2 holds exactly.
    """
    d = dimension
    chi = float(np.sqrt(d / (d + 8.0)))
    if f.alpha == 1.0:
        return chi, 1.0
    if f.delta_bar <= 0:
        raise ConfigurationError("mobility must declare delta_bar > 0")
    bracket = f.delta_bar + 1.0 - d / 2.0 + 0.5 * np.sqrt(d ** 2 + 8.0 * d) - 2.0
    delta_max = 1.0 if bracket <= 0 else min(1.0, float(f.delta_bar / bracket))
    return chi, 0.5 * delta_max
