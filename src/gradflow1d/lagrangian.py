"""Mobilities and assumption validation.

The energies are Phi(u) = 1/2 int |(f o u)'|^2 with a concave mobility f;
thin film is the identity f(z) = z.  `validate_assumption_f` checks a
power-law mobility's structure assumptions in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import CertificateReport
from .transport import ConfigurationError


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
