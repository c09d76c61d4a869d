"""Numerical certificates for the discrete estimates behind the scheme.

Every check returns CertificateReport objects oriented as lhs <= rhs, so a
nonnegative slack means the estimate holds.  The trajectory checks read a
run's stacked map nodes and grid states (`JkoTrajectory`).

The per-step dissipation and weak-form checks take a mobility f and serve
every energy of the class: thin film is the identity mobility, for which the
dissipation constant is delta = 1.  Each report is named after its check.

The per-state parts of the dissipation and weak-form checks are computed
by array passes over blocks of rows of the (states x M) cell values, about
RESAMPLE_BLOCK values each (`JkoTrajectory.per_state`): the stencils and
N_f work along the last axis, and each row of a row reduction is bitwise
the one-dimensional sum over that state, so the reports equal those of a
loop over states.
"""

from __future__ import annotations

import numpy as np

from .report import CertificateReport
from .transport import ConfigurationError
from .lagrangian import (U_FLOOR, MobilitySpec, TemporalWeight, TestFunction,
                         d2, nf_density)
from .jko import JkoTrajectory

SLACK_FACTOR = 2.0   # headroom on the discrete weak-formulation envelopes
BETA = 1e-3          # entropy weight on the same envelopes
INNER_TOL = 1e-10    # relative energy tolerance of energy_monotone
DISTANCE_MARGIN = 1.001  # margin of total_square_distance


# --- classical trajectory estimates ---------------------------------------

def check_energy_monotone(traj: JkoTrajectory) -> list[CertificateReport]:
    """Per step: E_n <= E_{n-1} up to the inner-solver tolerance."""
    slack = INNER_TOL * abs(traj.energies[0])
    return [CertificateReport(name="energy_monotone",
                              lhs=float(traj.energies[n]),
                              rhs=float(traj.energies[n - 1]), tolerance=slack,
                              step=n)
            for n in range(1, traj.n_steps + 1)]


def check_total_square_distance(traj: JkoTrajectory) -> CertificateReport:
    """sum_n W2(u_{n-1}, u_n)^2 <= 2 tau Phi(u_0) (with a 0.1% margin)."""
    lhs = float(np.sum(traj.step_distances ** 2))
    rhs = float(2.0 * traj.tau * traj.energies[0] * DISTANCE_MARGIN)
    return CertificateReport(name="total_square_distance", lhs=lhs, rhs=rhs)


# --- per-step dissipation certificates ------------------------------------

def check_entropy_dissipation_f(traj: JkoTrajectory, f: MobilitySpec,
                                delta: float) -> list[CertificateReport]:
    """Per step: ||(f o u_n)''||^2 <= (Ent(u_{n-1}) - Ent(u_n))/(delta tau).

    The left sides of all steps come from array passes over the stacked
    states.  The tolerance is 10% of the left side, plus the rounding of
    the entropy drop, plus that of the left side itself.  A cell value is
    a difference of two mass levels in [0, 1] over h; with each level taken
    within 4 eps, it carries an absolute error of at most du = 8 eps / h,
    and w = f(u) one of dw = min(|f'(u)| du, f(du)) (f is concave and
    f(0) = 0).  The absolute stencil sums (dw_{i-1} + 2 dw_i + dw_{i+1}) /
    h^2 bound the errors of the second differences; with e their L2 norm,
    the computed left side is within 2 sqrt(lhs) e + e^2 of the exact one.
    """
    h = traj.grid.h
    du = 8 * np.finfo(float).eps / h

    def lhs_and_rounding(v):
        u = np.maximum(v, 0.0)
        dw = np.minimum(np.abs(f.f1(np.maximum(u, U_FLOOR))) * du,
                        np.full(u.shape, f.f(du)))
        # d2 + 4 dw / h^2 is the stencil's absolute sum, reflection included
        e = np.sqrt(h * np.sum((d2(dw, h) + 4 * dw / h ** 2) ** 2, axis=-1))
        return h * np.sum(d2(f.f(u), h) ** 2, axis=-1), e

    lhs, e = traj.per_state(lhs_and_rounding, first=1)
    dent = traj.entropies[:-1] - traj.entropies[1:]
    rhs = dent / (delta * traj.tau)
    tol = (0.1 * lhs + 1e-12 / (delta * traj.tau)
           + (2 * np.sqrt(lhs) * e + e * e))
    return [CertificateReport(
        name="entropy_dissipation", lhs=float(lhs[i]), rhs=float(rhs[i]),
        tolerance=float(tol[i]), step=i + 1,
        context={"entropy_drop": float(dent[i])})
        for i in range(traj.n_steps)]


# --- discrete weak formulations -------------------------------------------

def _quadratures(a: np.ndarray, h: float) -> tuple:
    """Midpoint sums h sum(a) and h sum(|a|) of each row of a stack."""
    return h * np.sum(a, axis=-1), h * np.sum(np.abs(a), axis=-1)


def check_discrete_weak_f(traj: JkoTrajectory, f: MobilitySpec,
                          phi: TestFunction,
                          eta: TemporalWeight) -> CertificateReport:
    """Two-sided discrete weak formulation for the mobility class.

    The transport + operator sum
    mid = sum_n (eta_n - eta_{n+1}) int u_n phi - eta_1 int u_0 phi
          + tau sum_n eta_n int N_f(u_n),
    summed by parts from sum_n eta_n int (u_n - u_{n-1}) phi (the boundary
    term at u_0 is nonzero when eta starts before the first step), is
    sandwiched by the SLACK_FACTOR kappa tau Phi(u_0) envelope tightened by
    BETA-weighted entropy differences with |eta|:
    -env + B <= mid <= env - B where B = BETA sum (|eta|_n - |eta|_{n+1}) Ent_n.
    The tolerance is the floating-point error bound of mid,
    (M + n_steps + 2) eps times the same sums over absolute terms, so a
    stationary datum (env = 0, mid at rounding level) passes.
    """
    if eta.support_hi > traj.times[-1] + 1e-12:
        raise ConfigurationError("temporal weight support exceeds the horizon")
    tau = traj.tau
    grid = traj.grid
    # array passes over the step times and the stacked states u_1 .. u_N
    eta_n = eta(np.arange(1, traj.n_steps + 2) * tau)
    h = grid.h
    phi_mid = phi.f(grid.midpoints)
    mass_phi, abs_phi, nvals, abs_nf = traj.per_state(
        lambda v: (_quadratures(v * phi_mid, h)
                   + _quadratures(nf_density(f, grid, phi, v), h)), first=1)
    mass0, abs0 = _quadratures(traj.values[0] * phi_mid, h)
    d_eta = eta_n[:-1] - eta_n[1:]
    t_transport = float(np.sum(d_eta * mass_phi))
    t_operator = float(tau * np.sum(eta_n[:-1] * nvals))
    mid = t_transport + t_operator - float(eta_n[0] * mass0)
    abs_eta = np.abs(eta_n)
    rounding = float((grid.m + traj.n_steps + 2) * np.finfo(float).eps
                     * (np.sum(np.abs(d_eta) * abs_phi) + abs_eta[0] * abs0
                        + tau * np.sum(abs_eta[:-1] * abs_nf)))
    ent = traj.entropies[1:traj.n_steps + 1]
    bterm = float(BETA * np.sum((abs_eta[:-1] - abs_eta[1:]) * ent))
    kappa = phi.sup_d2()
    env = SLACK_FACTOR * kappa * tau * eta.c0_norm * traj.energies[0]
    lower, upper = -env + bterm, env - bterm
    violation = max(lower - mid, mid - upper)
    return CertificateReport(
        name="discrete_weak", lhs=violation, rhs=0.0, tolerance=rounding,
        context={"mid": mid, "lower": lower, "upper": upper, "beta": BETA,
                 "kappa": kappa, "tau": tau})
