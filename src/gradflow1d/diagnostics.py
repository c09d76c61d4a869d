"""Numerical certificates for the discrete estimates behind the scheme.

Every check returns CertificateReport objects oriented as lhs <= rhs, so a
nonnegative slack means the estimate holds.  The trajectory checks read a
run's stacked map nodes and grid states (`JkoTrajectory`).

The per-step dissipation and weak-form checks take a mobility f and serve
every energy of the class: thin film is the identity mobility, for which the
dissipation constant is delta = 1.  Each report is named after its check.
Their per-state parts are array passes over blocks of rows of the cell
values or of the map nodes (`jko.per_row`), each row reduced bitwise as
alone, so the reports equal those of a loop over states.
"""

from __future__ import annotations

import numpy as np

from .report import CertificateReport
from .lagrangian import MobilitySpec
from .jko import JkoTrajectory, MobilityMapEnergy, per_row

U_FLOOR = 1e-12  # density clip before mobility derivatives near vacuum
INNER_TOL = 1e-10    # relative energy tolerance of energy_monotone
DISTANCE_MARGIN = 1.001  # margin of total_square_distance
WEAK_MODES = (1, 2, 3)  # j of the test functions cos(j pi (x - lo) / L)


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
    # Python floats: an overflow is an infinite bound, with no warning
    rhs = 2.0 * traj.tau * float(traj.energies[0]) * DISTANCE_MARGIN
    return CertificateReport(name="total_square_distance", lhs=lhs, rhs=rhs)


# --- per-step dissipation certificates ------------------------------------

def d2(w: np.ndarray, h: float) -> np.ndarray:
    """Central second difference, reflecting ends, along the last axis."""
    wg = np.concatenate([w[..., :1], w, w[..., -1:]], axis=-1)
    return (wg[..., 2:] - 2 * wg[..., 1:-1] + wg[..., :-2]) / h ** 2


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

    lhs, e = per_row(lhs_and_rounding, traj.values[1:])
    dent = traj.entropies[:-1] - traj.entropies[1:]
    rhs = dent / (delta * traj.tau)
    tol = (0.1 * lhs + 1e-12 / (delta * traj.tau)
           + (2 * np.sqrt(lhs) * e + e * e))
    return [CertificateReport(
        name="entropy_dissipation", lhs=float(lhs[i]), rhs=float(rhs[i]),
        tolerance=float(tol[i]), step=i + 1,
        context={"entropy_drop": float(dent[i])})
        for i in range(traj.n_steps)]


# --- discrete weak formulation in the map nodes ----------------------------

def weak_terms(traj: JkoTrajectory, f: MobilitySpec) -> tuple:
    """The (modes x steps) residuals, bounds and rounding terms of
    `check_discrete_weak_f`, by `per_row` over the map rows."""
    eps, dom = np.finfo(float).eps, traj.grid.domain
    pos, energy = traj.positions, MobilityMapEnergy(f)
    k = pos.shape[-1] - 1
    om = np.array(WEAK_MODES)[:, None] * np.pi / dom.length
    sigma = (2 + 3 * om * dom.length) * eps  # the rounding of each sine

    def node_terms(x):
        # nodes on axis 0 for the gradient, then rows again for the sums
        pt = energy.point(x.T)
        g = energy.value_and_grad(x.T, pt)[1].T
        dx, u, w, w1 = pt.dx.T, pt.u.T, pt.w.T, np.abs(pt.w1.T)
        sines = np.sin(om[:, :, None] * (x - dom.lo))
        mass = np.sum((sines[..., 1:] - sines[..., :-1]) / dx, axis=-1)
        big_r = (w[:, :-1] + w[:, 1:]) / pt.s.T  # R >= |r|, as f >= 0
        q = np.sum(big_r * (w1[:, :-1] + w1[:, 1:] + big_r), axis=-1)
        return (mass / (k * om), -om * np.sum(g * sines[..., 1:-1], axis=-1),
                2 * sigma / om * np.sum(u, axis=-1) + (k + 6) * eps,
                om * ((sigma + (k + 5) * eps) * np.sum(np.abs(g), axis=-1)
                      + 80 * eps * q), np.max(dx, axis=-1) ** 2)

    mass, grad, mass_err, grad_err, dx2 = per_row(node_terms, pos)
    tau, w2 = traj.tau, traj.step_distances
    return (mass[:, 1:] - mass[:, :-1] + tau * grad[:, 1:],
            0.5 * om ** 2 * w2 ** 2 + om ** 3 / 8 * dx2[1:] * w2,
            mass_err[:, 1:] + mass_err[:, :-1] + tau * grad_err[:, 1:])


def check_discrete_weak_f(traj: JkoTrajectory,
                          f: MobilitySpec) -> CertificateReport:
    """Per step n and mode j, the weak formulation in the map nodes:
    |int phi d(u_n - u_{n-1}) + tau <grad Phi(x_n), xi_n>| <= 1/2 w^2 W2(n)^2
    + w^3 / 8 max dX_n^2 W2(n), for phi = cos(w (x - lo)), w = j pi / L
    (`WEAK_MODES`), xi_n = phi' at x_n's interior nodes, W2(n) the step's
    distance.

    Tested against xi_n, step n's Euler-Lagrange equation is
    <M (x_n - x_{n-1}), xi_n> = -tau <grad Phi(x_n), xi_n> up to the
    solver's residual, M the P1 mass matrix in the mass variable m.  By
    Taylor's theorem, int phi d(u_n - u_{n-1}) is within 1/2 sup|phi''|
    W2(n)^2 of int phi'(X_n) (X_n - X_{n-1}) dm, which the P1 interpolation
    of phi' o X_n in m puts within sup|phi'''| max dX_n^2 / 8 times
    int |X_n - X_{n-1}| dm <= W2(n) of the mass-matrix product.  On the map,
    int phi du_n = dm sum_i (S_{i+1} - S_i) / (w dX_i) exactly, with
    S = sin(w (x - lo)), and xi = -w S.

    The tolerance bounds the rounding of the left side.  Each S is within
    sigma = (2 + 3 j pi) eps, so int phi du_n within 2 sigma / w sum_i u_i
    + (K + 6) eps.  In the gradient, W = f(u) is within 4 eps, d = W(b) -
    W(a) within 5 eps (W(a) + W(b)), r = d / s within 7 eps R for
    R = (W(a) + W(b)) / s, each interface term within 18 eps R (2 |W'| + R),
    and the nodal errors sum to at most 80 eps Q, Q = sum R (|W'(a)| +
    |W'(b)| + R); so tau <g, xi> is within tau w ((sigma + (K + 5) eps)
    sum |g_i| + 80 eps Q).  One report, at the step and mode of the largest
    |residual| / (bound + rounding), gives that |residual|, its bound and
    its rounding.  It reads the map nodes, step distances, tau and domain.
    """
    res, bound, rounding = weak_terms(traj, f)
    ratio = np.abs(res) / (bound + rounding)
    j, n = np.unravel_index(np.argmax(ratio), ratio.shape)
    return CertificateReport(
        name="discrete_weak", lhs=float(abs(res[j, n])),
        rhs=float(bound[j, n]), tolerance=float(rounding[j, n]),
        step=int(n) + 1,
        context={"mode": WEAK_MODES[j], "ratio": float(ratio[j, n])})
