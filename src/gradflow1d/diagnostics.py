"""Numerical certificates for the discrete estimates behind the scheme.

Every check returns CertificateReport objects oriented as lhs <= rhs, so a
nonnegative slack means the estimate holds.  The heat flow and the flow
interchange quotient provide the regularity side; the discrete weak
formulations provide the consistency side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .report import CertificateReport
from .transport import ConfigurationError, GridDensity, boltzmann_entropy
from .lagrangian import (LagrangianSpec, MobilitySpec, TemporalWeight,
                         TestFunction, d2, staggered_gradient_quadrature,
                         weak_operator_N, weak_operator_Nf)
from .jko import JkoTrajectory

SLACK_FACTOR = 2.0   # headroom on the discrete weak-formulation envelopes


@dataclass
class SobolevNorms:
    l2: float
    h1: float
    h2: float  # second-derivative seminorm


def sobolev_norms(values: np.ndarray, h: float) -> SobolevNorms:
    """Discrete L2 / H1 / H2 norms with the module's Neumann stencils.

    The gradient part uses interface differences (consistent with the energy
    quadrature); the second derivative uses the reflecting 3-point stencil.
    """
    v = np.asarray(values, dtype=float)
    l2sq = h * np.sum(v * v)
    gradsq = 2.0 * staggered_gradient_quadrature(v, h)
    h2 = np.sqrt(h * np.sum(d2(v, h) ** 2))
    return SobolevNorms(l2=float(np.sqrt(l2sq)),
                        h1=float(np.sqrt(l2sq + gradsq)), h2=float(h2))


# --- heat flow and flow interchange ---------------------------------------

def heat_flow(u: GridDensity, s: float) -> GridDensity:
    """Crank-Nicolson Neumann heat flow over time s.

    Substeps keep dt <= h^2 so the explicit half is an M-matrix: the flow
    preserves nonnegativity, conserves mass at the linear-algebra level
    (zero row sums of the reflecting Laplacian), and dissipates entropy.
    """
    if s < 0:
        raise ConfigurationError("diffusion time must be nonnegative")
    if s == 0:
        return u
    v = u.values.copy()
    m, h = u.m, u.h
    n_sub = max(int(np.ceil(s / h ** 2)), 1)
    dt = s / n_sub
    mu = 0.5 * dt / h ** 2
    # banded (I - mu D) with D the reflecting 3-point Laplacian stencil
    ab = np.zeros((3, m))
    ab[0, 1:] = -mu
    ab[2, :-1] = -mu
    ab[1, :] = 1 + 2 * mu
    ab[1, 0] = ab[1, -1] = 1 + mu
    for _ in range(n_sub):
        vg = np.concatenate([[v[0]], v, [v[-1]]])
        rhs = v + mu * (vg[2:] - 2 * vg[1:-1] + vg[:-2])
        v = solve_banded((1, 1), ab, rhs)
    return GridDensity(u.domain, np.maximum(v, 0.0) / max(np.sum(v) * h, 1e-300))


def flow_interchange_dissipation(energy_fn, u: GridDensity,
                                 s_probe: float | None = None,
                                 richardson: bool = False) -> float:
    """Difference quotient (Phi(u) - Phi(heat_flow(u, s)))/s.

    With richardson=True the first-order bias in s is removed by combining
    the quotients at s and s/2.
    """
    if s_probe is None:
        s_probe = 1e-6 * u.domain.length ** 2
    e0 = energy_fn(u)

    def quotient(s):
        return (e0 - energy_fn(heat_flow(u, s))) / s

    q1 = quotient(s_probe)
    if not richardson:
        return float(q1)
    return float(2.0 * quotient(0.5 * s_probe) - q1)


# --- classical trajectory estimates ---------------------------------------

def check_energy_monotone(traj: JkoTrajectory,
                          inner_tol: float = 1e-10) -> list[CertificateReport]:
    """Per step: E_n <= E_{n-1} up to the inner-solver tolerance."""
    slack = inner_tol * abs(traj.energies[0])
    return [CertificateReport(name="energy_monotone",
                              lhs=float(traj.energies[n]),
                              rhs=float(traj.energies[n - 1]), tolerance=slack,
                              step=n)
            for n in range(1, traj.n_steps + 1)]


def check_total_square_distance(traj: JkoTrajectory,
                                margin: float = 1.001) -> CertificateReport:
    """sum_n W2(u_{n-1}, u_n)^2 <= 2 tau Phi(u_0) (with a 0.1% margin)."""
    lhs = float(np.sum(traj.step_distances ** 2))
    rhs = float(2.0 * traj.tau * traj.energies[0] * margin)
    return CertificateReport(name="total_square_distance", lhs=lhs, rhs=rhs)


def check_holder_continuity(traj: JkoTrajectory) -> CertificateReport:
    """W2(u(t), u(s)) <= sqrt(2 Phi(u_0) (|t - s| + tau)) over all stamp pairs.

    Checked with the exact map distances, one batched evaluation per lag
    j - i; the report carries the worst pair, the first in (i, j) order on
    ties.
    """
    from .transport import w2sq_between_maps
    e0 = traj.energies[0]
    worst = -np.inf
    worst_pair = (0, 0)
    pos = np.stack([mp.positions for mp in traj.maps])
    for lag in range(1, traj.n_steps + 1):
        d = np.sqrt(w2sq_between_maps(pos[:-lag], pos[lag:]))
        gap = d - np.sqrt(2.0 * e0 * (lag * traj.tau + traj.tau))
        i = int(np.argmax(gap))
        if gap[i] > worst or (gap[i] == worst and i < worst_pair[0]):
            worst = gap[i]
            worst_pair = (i, i + lag)
    return CertificateReport(name="holder_continuity", lhs=float(worst),
                             rhs=0.0, context={"worst_pair": worst_pair})


# --- per-step dissipation certificates ------------------------------------

def check_entropy_dissipation_A(traj: JkoTrajectory, F: LagrangianSpec,
                                C3: float = 0.0) -> list[CertificateReport]:
    """Per step: ||u_n''||^2 <= (Ent(u_{n-1}) - Ent(u_n))/(gamma tau) + C3 (...).

    For x-independent Lagrangians the proof's constant vanishes, so C3 = 0
    and the check is a sharp per-step entropy-dissipation certificate.
    10% multiplicative slack plus a small absolute floor for near-stationary
    steps where the entropy difference is at rounding level.
    """
    if F.x_dependent and C3 == 0.0:
        C3 = F.D
    out = []
    for n in range(1, traj.n_steps + 1):
        un = traj.states[n]
        norms = sobolev_norms(un.values, un.h)
        lhs = norms.h2 ** 2
        dent = traj.entropies[n - 1] - traj.entropies[n]
        rhs = dent / (F.gamma * traj.tau) + C3 * (norms.h1 ** 2 + 1.0)
        # absolute floor: entropy differences are evaluated at rounding level
        tol = 0.1 * lhs + 1e-12 / (F.gamma * traj.tau)
        out.append(CertificateReport(
            name="entropy_dissipation", lhs=lhs, rhs=rhs, tolerance=tol,
            step=n, context={"entropy_drop": float(dent)}))
    return out


def check_entropy_dissipation_f(traj: JkoTrajectory, f: MobilitySpec,
                                delta: float) -> list[CertificateReport]:
    """Per step: ||(f o u_n)''||^2 <= (Ent(u_{n-1}) - Ent(u_n))/(delta tau)."""
    out = []
    for n in range(1, traj.n_steps + 1):
        un = traj.states[n]
        w = f.f(np.maximum(un.values, 0.0))
        lhs = float(un.h * np.sum(d2(w, un.h) ** 2))
        dent = traj.entropies[n - 1] - traj.entropies[n]
        rhs = dent / (delta * traj.tau)
        tol = 0.1 * lhs + 1e-12 / (delta * traj.tau)
        out.append(CertificateReport(
            name="entropy_dissipation_mobility", lhs=lhs, rhs=rhs,
            tolerance=tol, step=n, context={"entropy_drop": float(dent)}))
    return out


# --- discrete weak formulations -------------------------------------------

def _weak_sums(traj: JkoTrajectory, phi: TestFunction, eta: TemporalWeight,
               operator_values: np.ndarray) -> tuple[float, float]:
    if eta.support_hi > traj.times[-1] + 1e-12:
        raise ConfigurationError("temporal weight support exceeds the horizon")
    tau = traj.tau
    n_steps = traj.n_steps
    eta_n = np.array([eta(n * tau) for n in range(1, n_steps + 2)])
    mass_phi = np.array([
        traj.states[n].h * np.sum(traj.states[n].values
                                  * phi.f(traj.states[n].midpoints))
        for n in range(1, n_steps + 1)])
    t_transport = float(np.sum((eta_n[:-1] - eta_n[1:]) * mass_phi))
    t_operator = float(tau * np.sum(eta_n[:-1] * operator_values))
    return t_transport, t_operator


def check_discrete_weak_A(traj: JkoTrajectory, F: LagrangianSpec,
                          phi: TestFunction, eta: TemporalWeight,
                          slack_factor: float = SLACK_FACTOR) -> CertificateReport:
    """|sum_n (eta_n - eta_{n+1}) int u_n phi + tau sum_n eta_n int N(u_n)|
    <= slack_factor * tau ||phi||_C2 ||eta||_C0 Phi(u_0)."""
    nvals = np.array([weak_operator_N(F, traj.states[n], phi)
                      for n in range(1, traj.n_steps + 1)])
    t1, t2 = _weak_sums(traj, phi, eta, nvals)
    residual = abs(t1 + t2)
    bound = slack_factor * traj.tau * phi.c2_norm * eta.c0_norm * traj.energies[0]
    return CertificateReport(
        name="discrete_weak", lhs=residual, rhs=bound, tolerance=0.0,
        context={"transport_term": t1, "operator_term": t2, "tau": traj.tau})


def check_discrete_weak_f(traj: JkoTrajectory, f: MobilitySpec,
                          phi: TestFunction, eta: TemporalWeight,
                          beta: float = 1e-3,
                          slack_factor: float = SLACK_FACTOR) -> CertificateReport:
    """Two-sided discrete weak formulation for the mobility class.

    The transport + operator sum is sandwiched by the kappa tau Phi(u_0)
    envelope tightened by beta-weighted entropy differences with |eta|:
    -env + B <= mid <= env - B where B = beta sum (|eta|_n - |eta|_{n+1}) Ent_n.
    """
    nvals = np.array([weak_operator_Nf(f, traj.states[n], phi)
                      for n in range(1, traj.n_steps + 1)])
    t1, t2 = _weak_sums(traj, phi, eta, nvals)
    mid = t1 + t2
    tau = traj.tau
    abs_eta = np.array([abs(eta(n * tau)) for n in range(1, traj.n_steps + 2)])
    ent = traj.entropies[1:traj.n_steps + 1]
    bterm = float(beta * np.sum((abs_eta[:-1] - abs_eta[1:]) * ent))
    kappa = phi.sup_d2()
    env = slack_factor * kappa * tau * eta.c0_norm * traj.energies[0]
    lower, upper = -env + bterm, env - bterm
    violation = max(lower - mid, mid - upper)
    return CertificateReport(
        name="discrete_weak_mobility", lhs=violation, rhs=0.0, tolerance=0.0,
        context={"mid": mid, "lower": lower, "upper": upper, "beta": beta,
                 "kappa": kappa, "tau": tau})


# --- a priori bounds ------------------------------------------------------

def apriori_bounds(traj: JkoTrajectory, c_lower: float,
                   transform=None) -> CertificateReport:
    """sup-in-time H1 control from energy coercivity.

    With w = u (or w = f(u)), the orthogonal split of w into its mean and
    oscillation plus the sharp interval Poincare constant (L/pi) gives
    Phi >= C0 ||w||_H1^2 - C1 with C0 = c/(1 + (L/pi)^2) and
    C1 = C0 (int w)^2 / L; the certificate checks
    sup_t ||w||_H1 <= sqrt((Phi(u_0) + C1)/C0).
    """
    u0 = traj.states[0]
    L = u0.domain.length
    c0 = c_lower / (1.0 + (L / np.pi) ** 2)
    sup_h1 = 0.0
    h2_integral = 0.0
    wmass = 1.0
    for n, state in enumerate(traj.states):
        w = state.values if transform is None else transform(state.values)
        norms = sobolev_norms(w, state.h)
        sup_h1 = max(sup_h1, norms.h1)
        if n >= 1:
            h2_integral += traj.tau * norms.h2 ** 2
        if n == 0:
            wmass = float(np.sum(w) * state.h)
    c1 = c0 * wmass ** 2 / L
    bound = float(np.sqrt((traj.energies[0] + c1) / c0))
    return CertificateReport(
        name="apriori_h1", lhs=sup_h1, rhs=bound, tolerance=0.0,
        context={"h2_time_integral": h2_integral, "C0": c0, "C1": c1})


# --- algebraic lemmas -----------------------------------------------------

def traceless_lemma_check(A: np.ndarray, v: np.ndarray,
                          tol: float = 1e-12) -> CertificateReport:
    """||A||_F^2 + 2 v.Av + (d-1)/d |v|^4 >= 0 for symmetric traceless A."""
    A = np.asarray(A, dtype=float)
    v = np.asarray(v, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d) or v.shape != (d,) or d < 2:
        raise ConfigurationError("need a d x d matrix and d-vector, d >= 2")
    norm = np.linalg.norm(A)
    if np.max(np.abs(A - A.T)) > 1e-12 * max(norm, 1.0):
        raise ConfigurationError("matrix must be symmetric")
    if abs(np.trace(A)) > 1e-12 * max(norm, 1.0):
        raise ConfigurationError("matrix must be traceless")
    vv = float(v @ v)
    value = float(norm ** 2 + 2.0 * v @ (A @ v) + (d - 1) / d * vv * vv)
    scale = max(norm ** 2, vv * vv, 1.0)
    return CertificateReport(
        name="traceless_binomial", lhs=-value, rhs=0.0, tolerance=tol * scale,
        context={"d": d, "value": value})

