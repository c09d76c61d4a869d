"""Numerical certificates for the discrete estimates behind the scheme.

Every check returns CertificateReport objects oriented as lhs <= rhs, so a
nonnegative slack means the estimate holds.  The trajectory checks read a
run's stacked map nodes and grid states (`JkoTrajectory`).

The per-step dissipation and weak-form checks take a mobility f and serve
every energy of the class: thin film is the identity mobility, for which the
dissipation constant is delta = 1.  Each report is named after its check.

The per-state parts of the dissipation, weak-form and a priori checks are
computed by array passes over blocks of rows of the (states x M) cell
values, about RESAMPLE_BLOCK values each (`JkoTrajectory.per_state`): the
stencils, norms and N_f work along the last axis, and each row of a row
reduction is bitwise the one-dimensional sum over that state, so the
reports equal those of a loop over states.

The Hoelder check reports exactly the worst of all stamp pairs, but a
triangle-inequality screen over the step distances spares it the pairs that
cannot be the worst, so in practice it evaluates only the lag-1 pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import CertificateReport
from .transport import ConfigurationError
from .lagrangian import (MobilitySpec, TemporalWeight, TestFunction, d2,
                         nf_density, staggered_gradient_quadrature)
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
    A (..., M) stack of rows gives arrays of the leading shape, each entry
    the norm of that row alone.
    """
    v = np.asarray(values, dtype=float)
    l2sq = h * np.sum(v * v, axis=-1)
    gradsq = 2.0 * staggered_gradient_quadrature(v, h)
    norms = (np.sqrt(l2sq), np.sqrt(l2sq + gradsq),
             np.sqrt(h * np.sum(d2(v, h) ** 2, axis=-1)))
    if v.ndim == 1:
        norms = [float(n) for n in norms]
    return SobolevNorms(*norms)


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

    The report is that of evaluating every pair i < j with the exact map
    distance: lhs is the largest gap W2(u_i, u_j) - c(j - i), with
    c(lag) = sqrt(2 Phi(u_0) (lag tau + tau)), and worst_pair is the pair
    that attains it with the smallest i, then the smallest lag.  The pairs
    that cannot reach the worst gap are screened out unevaluated, so on a
    decaying run only the lag-1 pairs are evaluated.

    The screen.  The lag-1 distances d_k = W2(u_k, u_{k+1}) come from
    `consecutive_distances` over the map nodes, with prefix sums S
    (S_0 = 0).  W2 between maps is a norm of the node difference (the
    exact quadratic form of `w2sq_between_maps`), so
    W2(u_i, u_j) <= S_j - S_i by the triangle inequality.  In floating point, with eps the machine epsilon, K the
    number of map cells and N the number of steps, to first order (node
    differences are far above underflow):
      - a computed distance is within a relative g = (K + 17) eps / 4 of
        the exact norm: 15 eps / 2 on each nonnegative summand (the node
        differences, three products, two additions), (K - 1) eps / 2 for
        the K-term sum, eps / 2 for the scaling, and the square root halves
        all that and adds eps / 2;
      - so the computed d_ij <= (1 + 2 g) sum_{i <= k < j} d_k;
      - each sequential prefix sum is within N eps S_N / 2 of the exact
        partial sum of the computed d_k, so their difference is within
        N eps S_N;
      - the subtraction, scaling and addition below round once each
        (3 eps / 2).
    Hence B(i, j) = fl(fl(fl(S_j - S_i) R) + P), with
    R = 1 + 2 (K + 20) eps and P = 4 (N + 2) eps S_N, bounds the computed
    distance of the pair: R - 1 is four times the 2 g + 3 eps / 2 needed,
    and P over four times the N eps S_N.  Rounding is monotone, so a pair
    with fl(B(i, i + lag) - c(lag)) below the worst gap found so far cannot
    reach it and is dropped; the rows kept are evaluated in one batched
    call per lag, each row bitwise the pair's own sum, and a lag whose
    widest span S_{i + lag} - S_i fails the screen has no row that passes.
    S is nondecreasing and c nondecreasing in the lag, so once the
    whole-path bound B(0, N) fails the screen at some lag, every pair of
    that and later lags does, and the search ends.
    """
    from .transport import consecutive_distances, w2sq_between_maps
    pos, n = traj.positions, traj.n_steps
    e0, tau = float(traj.energies[0]), float(traj.tau)
    worst = -math.inf
    worst_pair = (0, 0)
    if n > 0:
        dist = consecutive_distances(pos)
        s = np.concatenate(([0.0], np.cumsum(dist)))
        eps = math.ulp(1.0)
        rel = 1.0 + 2.0 * ((pos.shape[-1] - 1) + 20) * eps  # K + 20
        pad = 4.0 * (n + 2) * eps * float(s[-1])
        whole = float(s[-1]) * rel + pad
        rows = np.arange(n)
    for lag in range(1, n + 1):
        c = math.sqrt(2.0 * e0 * (lag * tau + tau))
        if lag > 1:
            if whole - c < worst:
                break
            span = s[lag:] - s[:-lag]
            # the screen value grows with the span: try the widest row first
            if not float(span.max()) * rel + pad - c >= worst:
                continue
            rows = np.flatnonzero(span * rel + pad - c >= worst)
            dist = np.sqrt(w2sq_between_maps(pos[rows], pos[rows + lag]))
        gap = dist - c
        k = int(np.argmax(gap))
        i = int(rows[k])
        if gap[k] > worst or (gap[k] == worst and i < worst_pair[0]):
            worst = float(gap[k])
            worst_pair = (i, i + lag)
    return CertificateReport(name="holder_continuity", lhs=worst,
                             rhs=0.0, context={"worst_pair": worst_pair})


# --- per-step dissipation certificates ------------------------------------

def check_entropy_dissipation_f(traj: JkoTrajectory, f: MobilitySpec,
                                delta: float) -> list[CertificateReport]:
    """Per step: ||(f o u_n)''||^2 <= (Ent(u_{n-1}) - Ent(u_n))/(delta tau).

    The left sides of all steps come from array passes over the stacked
    states.
    """
    h = traj.grid.h
    lhs = traj.per_state(
        lambda v: h * np.sum(d2(f.f(np.maximum(v, 0.0)), h) ** 2, axis=-1),
        first=1)
    dent = traj.entropies[:-1] - traj.entropies[1:]
    rhs = dent / (delta * traj.tau)
    tol = 0.1 * lhs + 1e-12 / (delta * traj.tau)
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
                          phi: TestFunction, eta: TemporalWeight,
                          beta: float = 1e-3,
                          slack_factor: float = SLACK_FACTOR) -> CertificateReport:
    """Two-sided discrete weak formulation for the mobility class.

    The transport + operator sum
    mid = sum_n (eta_n - eta_{n+1}) int u_n phi - eta_1 int u_0 phi
          + tau sum_n eta_n int N_f(u_n),
    summed by parts from sum_n eta_n int (u_n - u_{n-1}) phi (the boundary
    term at u_0 is nonzero when eta starts before the first step), is
    sandwiched by the kappa tau Phi(u_0) envelope tightened by
    beta-weighted entropy differences with |eta|:
    -env + B <= mid <= env - B where B = beta sum (|eta|_n - |eta|_{n+1}) Ent_n.
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
    bterm = float(beta * np.sum((abs_eta[:-1] - abs_eta[1:]) * ent))
    kappa = phi.sup_d2()
    env = slack_factor * kappa * tau * eta.c0_norm * traj.energies[0]
    lower, upper = -env + bterm, env - bterm
    violation = max(lower - mid, mid - upper)
    return CertificateReport(
        name="discrete_weak", lhs=violation, rhs=0.0, tolerance=rounding,
        context={"mid": mid, "lower": lower, "upper": upper, "beta": beta,
                 "kappa": kappa, "tau": tau})


# --- a priori bounds ------------------------------------------------------

def apriori_bounds(traj: JkoTrajectory, c_lower: float,
                   transform=None) -> CertificateReport:
    """sup-in-time H1 control from energy coercivity.

    With w = u (or w = transform(u), such as f(u), applied elementwise to
    the stacked states), the orthogonal split of w into its mean and
    oscillation plus the sharp interval Poincare constant (L/pi) gives
    C0 ||w_n||_H1^2 - C0 (int w_n)^2 / L <= Phi(u_n) <= Phi(u_0) for every
    state, with C0 = c/(1 + (L/pi)^2).  int w_n is conserved only for
    w = u (int f(u) grows as a concave f flattens u), so C1 takes the
    largest over the run, C1 = C0 max_n (int w_n)^2 / L, and the
    certificate checks sup_t ||w||_H1 <= sqrt((Phi(u_0) + C1)/C0).
    """
    u0 = traj.grid
    L = u0.domain.length
    c0 = c_lower / (1.0 + (L / np.pi) ** 2)

    def norms_and_mass(v):
        w = v if transform is None else transform(v)
        norms = sobolev_norms(w, u0.h)
        return norms.h1, norms.h2, np.sum(w, axis=-1) * u0.h

    h1, h2s, wmasses = traj.per_state(norms_and_mass)
    sup_h1 = max(0.0, float(h1.max()))
    h2_integral = 0.0
    for h2 in h2s[1:].tolist():  # a running sum in step order, not pairwise
        h2_integral += traj.tau * h2 ** 2
    wmass = float(np.abs(wmasses).max())
    c1 = c0 * wmass ** 2 / L
    bound = float(np.sqrt((traj.energies[0] + c1) / c0))
    return CertificateReport(
        name="apriori_h1", lhs=sup_h1, rhs=bound, tolerance=0.0,
        context={"h2_time_integral": h2_integral, "C0": c0, "C1": c1})
