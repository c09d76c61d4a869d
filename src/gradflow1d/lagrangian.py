"""Energy integrands, mobilities, test functions and assumption validation.

The energies are Phi(u) = 1/2 int |(f o u)'|^2 with a concave mobility f;
thin film is the identity f(z) = z.  The certificates run every mobility
through this class and its weak-form operator N_f, and
`validate_assumption_f` checks a power-law mobility's structure assumptions
in closed form, on its constant and exponent.
"""

from __future__ import annotations

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
    def cosine(cls, lo: float, hi: float, k: int = 2) -> "TestFunction":
        """cos(k pi (x-lo)/L): Neumann-admissible for integer k."""
        om = k * np.pi / (hi - lo)
        return cls(lo, hi,
                   f=lambda x: np.cos(om * (x - lo)),
                   d1=lambda x: -om * np.sin(om * (x - lo)),
                   d2=lambda x: -om ** 2 * np.cos(om * (x - lo)))


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


# --- mobilities -----------------------------------------------------------

@dataclass
class MobilitySpec:
    """Mobility f(z) = C z^alpha on (0, inf), its first two derivatives and
    declared constants; thin film is the identity (C = alpha = 1)."""

    name: str
    f: Callable
    f1: Callable
    f2: Callable
    C: float
    alpha: float

    @classmethod
    def sqrt_mobility(cls) -> "MobilitySpec":
        return cls.power_mobility(1.0, 0.5, name="sqrt")

    @classmethod
    def identity(cls) -> "MobilitySpec":
        # constant derivatives, which broadcast against any z
        return cls(name="identity", f=lambda z: np.asarray(z, dtype=float),
                   f1=lambda z: 1.0, f2=lambda z: 0.0, C=1.0, alpha=1.0)

    @classmethod
    def power_mobility(cls, C: float, alpha: float,
                       name: str | None = None) -> "MobilitySpec":
        """f(z) = C z^alpha with alpha in (0, 1)."""
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("power mobility exponent must be in (0, 1]")
        a = alpha
        return cls(name=name or f"power[{C}*z^{alpha}]",
                   f=lambda z: C * np.asarray(z, float) ** a,
                   f1=lambda z: C * a * np.asarray(z, float) ** (a - 1),
                   f2=lambda z: C * a * (a - 1) * np.asarray(z, float) ** (a - 2),
                   C=C, alpha=a)


# --- weak-form operators --------------------------------------------------

def nf_density(f: MobilitySpec, u: GridDensity, phi: TestFunction,
               values: np.ndarray) -> np.ndarray:
    """N_f(v, phi) = (f(v))'' (f(v))' phi' + v f'(v) (f(v))'' phi'' at the
    cell midpoints of u's grid, for each row v of the (..., M) stack
    `values` of cell values on that grid.

    v f'(v) is evaluated at densities clipped below at U_FLOOR; the product
    stays finite because z f'(z) has a limit at 0.
    """
    v = np.maximum(values, U_FLOOR)
    h = u.h
    x = u.midpoints
    w = f.f(v)
    wp, wpp = d1(w, h), d2(w, h)
    return wpp * wp * phi.d1(x) + v * f.f1(v) * wpp * phi.d2(x)


# --- assumption validators ------------------------------------------------

def validate_assumption_f(f: MobilitySpec,
                          dimension: int = 1) -> CertificateReport:
    """The concave-mobility structure assumptions of a power law
    f(z) = C z^alpha, in closed form.

    For such an f, f(0+) = 0 and z f'(z) -> 0 as z -> 0 for every
    alpha > 0, f' >= C alpha z^(alpha-1) holds with equality, and the growth
    bounds (a)-(c) hold for alpha <= 1.  The third-derivative ratio
    f''' f' / f''^2 = (2 - alpha) / (1 - alpha) is at least
    1 - d/2 + sqrt(d^2 + 8 d)/2 exactly when alpha > `alpha_window(d)`.
    Three strict clauses remain: `constant` (0 < C < inf), `concavity`
    (alpha < 1) and `alpha_window` (alpha > alpha_window(d)).  Each margin
    is nonnegative exactly when its clause holds: a strict bound on alpha
    is measured from the neighbouring double inside it.
    """
    amin = alpha_window(dimension)
    margins = {"constant": 1.0 if 0.0 < f.C < np.inf else -1.0,
               "concavity": float(np.nextafter(1.0, 0.0) - f.alpha),
               "alpha_window": float(f.alpha - np.nextafter(amin, 1.0))}
    worst_key = min(margins, key=margins.get)
    return CertificateReport(
        name="assumption_mobility", lhs=-margins[worst_key], rhs=0.0,
        context={"worst_clause": worst_key, "margins": margins,
                 "dimension": dimension})


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
    as a safety margin.  delta_bar = (2 - alpha)/(1 - alpha) - 2, the cap
    that f''' f' / f''^2 = (2 - alpha)/(1 - alpha) puts on it, must be
    positive.  A linear mobility f(z) = C z (thin film) has delta = 1:
    there d/dt Ent = -||(f o u)''||^2 holds exactly.
    """
    d = dimension
    chi = float(np.sqrt(d / (d + 8.0)))
    if f.alpha == 1.0:
        return chi, 1.0
    delta_bar = (2 - f.alpha) / (1 - f.alpha) - 2.0
    if delta_bar <= 0:
        raise ConfigurationError("mobility must have delta_bar > 0")
    bracket = delta_bar + 1.0 - d / 2.0 + 0.5 * np.sqrt(d ** 2 + 8.0 * d) - 2.0
    delta_max = 1.0 if bracket <= 0 else min(1.0, float(delta_bar / bracket))
    return chi, 0.5 * delta_max
