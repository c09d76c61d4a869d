"""The per-state certificates evaluated in one pass over the stacked states
must give bitwise what their per-state loops gave.

Below are those loops verbatim, with the one-dimensional helpers they called,
as references; they read each state as its own GridDensity, rebuilt from
its row of the trajectory's values.  Row reductions along the last axis of a contiguous stack sum
each row exactly as the one-dimensional reduction does, so equality is
required bit for bit, not within a tolerance.
"""

import numpy as np
import pytest

from gradflow1d import jko
from gradflow1d import (GridDensity, Interval, JkoConfig, MobilityMapEnergy,
                        MobilitySpec, TemporalWeight, TestFunction,
                        boltzmann_entropy, check_discrete_weak_f,
                        check_entropy_dissipation_f, dissipation_constants,
                        run)
from gradflow1d.lagrangian import U_FLOOR, d1, d2, nf_density
from gradflow1d.transport import w2sq_between_maps

UNIT = Interval(0.0, 1.0)


# --- the one-dimensional helpers and per-state loops, verbatim --------------

def _ref_d1(w, h):
    wg = np.concatenate([[w[0]], w, [w[-1]]])
    return (wg[2:] - wg[:-2]) / (2 * h)


def _ref_d2(w, h):
    wg = np.concatenate([[w[0]], w, [w[-1]]])
    return (wg[2:] - 2 * wg[1:-1] + wg[:-2]) / h ** 2


def _ref_nf_density(f, u, phi):
    v = np.maximum(u.values, U_FLOOR)
    h = u.h
    x = u.midpoints
    w = f.f(v)
    wp, wpp = _ref_d1(w, h), _ref_d2(w, h)
    return wpp * wp * phi.d1(x) + v * f.f1(v) * wpp * phi.d2(x)


def _ref_boltzmann_entropy(u):
    v = u.values
    return float(u.h * np.sum(np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)))


def _states(traj):
    return [GridDensity(traj.grid.domain, v) for v in traj.values]


def _ref_entropy_dissipation(traj, f, delta):
    out = []
    states = _states(traj)
    for n in range(1, traj.n_steps + 1):
        un = states[n]
        w = f.f(np.maximum(un.values, 0.0))
        lhs = float(un.h * np.sum(_ref_d2(w, un.h) ** 2))
        dent = traj.entropies[n - 1] - traj.entropies[n]
        rhs = dent / (delta * traj.tau)
        # the rounding of lhs: cell values within du, w within dw, and e the
        # L2 norm of the stencil's absolute sums of dw
        du = 8 * np.finfo(float).eps / un.h
        dw = np.minimum(np.abs(f.f1(np.maximum(un.values, U_FLOOR))) * du,
                        np.full(un.m, f.f(du)))
        e = float(np.sqrt(un.h * np.sum(
            (_ref_d2(dw, un.h) + 4 * dw / un.h ** 2) ** 2)))
        tol = (0.1 * lhs + 1e-12 / (delta * traj.tau)
               + (2 * np.sqrt(lhs) * e + e * e))
        out.append((lhs, rhs, tol, n, float(dent)))
    return out


def _ref_discrete_weak(traj, f, phi, eta, beta=1e-3, slack_factor=2.0):
    tau = traj.tau
    states = _states(traj)[1:traj.n_steps + 1]
    eta_n = np.array([eta(n * tau) for n in range(1, traj.n_steps + 2)])
    uphi = [u.values * phi.f(u.midpoints) for u in states]
    nf = [_ref_nf_density(f, u, phi) for u in states]
    h = states[0].h
    mass_phi = np.array([h * np.sum(a) for a in uphi])
    nvals = np.array([h * np.sum(n) for n in nf])
    d_eta = eta_n[:-1] - eta_n[1:]
    t_transport = float(np.sum(d_eta * mass_phi))
    t_operator = float(tau * np.sum(eta_n[:-1] * nvals))
    # the summation-by-parts boundary term at u_0
    uphi0 = traj.values[0] * phi.f(states[0].midpoints)
    mid = t_transport + t_operator - float(eta_n[0] * (h * np.sum(uphi0)))
    abs_eta = np.abs(eta_n)
    abs_phi = np.array([h * np.sum(np.abs(a)) for a in uphi])
    abs_nf = np.array([h * np.sum(np.abs(n)) for n in nf])
    rounding = float((states[0].m + traj.n_steps + 2) * np.finfo(float).eps
                     * (np.sum(np.abs(d_eta) * abs_phi)
                        + abs_eta[0] * (h * np.sum(np.abs(uphi0)))
                        + tau * np.sum(abs_eta[:-1] * abs_nf)))
    ent = traj.entropies[1:traj.n_steps + 1]
    bterm = float(beta * np.sum((abs_eta[:-1] - abs_eta[1:]) * ent))
    kappa = phi.sup_d2()
    env = slack_factor * kappa * tau * eta.c0_norm * traj.energies[0]
    lower, upper = -env + bterm, env - bterm
    violation = max(lower - mid, mid - upper)
    return violation, rounding, mid, lower, upper


def _bits(*values):
    """Bit patterns, so that -0.0 and 0.0 differ too."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# --- trajectories -----------------------------------------------------------

MOBILITIES = {"identity": MobilitySpec.identity(),
              "sqrt": MobilitySpec.sqrt_mobility(),
              "power0.7": MobilitySpec.power_mobility(1.0, 0.7)}
DATA = {"cosine_eps0.9_k1": lambda m: GridDensity.cosine(UNIT, m, 0.9, 1),
        "bump": lambda m: GridDensity.bump(UNIT, m),
        "uniform": lambda m: GridDensity.uniform(UNIT, m)}
N_STEPS, TAU, M = 12, 1e-4, 48
CASES = [(f, d, ()) for f in MOBILITIES for d in DATA]
CASES += [("identity", "cosine_eps0.9_k1", (6,)), ("sqrt", "bump", (6,))]


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{f}-{d}" + ("-corrupt" if c else "")
                     for f, d, c in CASES])
def case(request, copied_steps):
    name, datum, corrupt = request.param
    f = MOBILITIES[name]
    with copied_steps(*corrupt):
        traj = run(DATA[datum](M), MobilityMapEnergy(f),
                   JkoConfig(tau=TAU, n_steps=N_STEPS, k=40))
    return f, traj


@pytest.fixture(params=[None, 5 * M], ids=["one_block", "blocks_of_5"])
def block(request, monkeypatch):
    """The per-state passes in one block, or in blocks of 5 states (the
    last one shorter)."""
    if request.param is not None:
        monkeypatch.setattr(jko, "RESAMPLE_BLOCK", request.param)


def test_entropies_match_loop(case, block):
    _, traj = case
    ref = _bits(*[_ref_boltzmann_entropy(u) for u in _states(traj)])
    assert _bits(*traj.entropies) == ref
    u0 = traj.grid
    assert _bits(*traj.per_state(lambda v: boltzmann_entropy(u0, v))) == ref


def test_step_distances_match_loop(case, monkeypatch):
    f, traj = case
    # the case's run, and one whose distances come in blocks of 5 pairs,
    # the last one shorter
    monkeypatch.setattr(jko, "RESAMPLE_BLOCK", 5 * traj.positions.shape[-1])
    again = run(traj.grid, MobilityMapEnergy(f),
                JkoConfig(tau=TAU, n_steps=N_STEPS, k=40))
    for t in (traj, again):
        ref = [np.sqrt(w2sq_between_maps(b, a))
               for a, b in zip(t.positions[:-1], t.positions[1:])]
        assert _bits(*t.step_distances) == _bits(*ref)


def test_entropy_dissipation_matches_loop(case, block):
    f, traj = case
    delta = dissipation_constants(f, 1)[1]
    reports = check_entropy_dissipation_f(traj, f, delta)
    ref = _ref_entropy_dissipation(traj, f, delta)
    assert len(reports) == len(ref) == N_STEPS
    for rep, (lhs, rhs, tol, n, dent) in zip(reports, ref):
        assert rep.step == n
        assert _bits(rep.lhs, rep.rhs, rep.tolerance,
                     rep.context["entropy_drop"]) == _bits(lhs, rhs, tol, dent)


def assert_discrete_weak_matches_loop(case, eta):
    f, traj = case
    phi = TestFunction.cosine(0.0, 1.0, k=2)
    rep = check_discrete_weak_f(traj, f, phi, eta)
    c = rep.context
    assert (_bits(rep.lhs, rep.tolerance, c["mid"], c["lower"], c["upper"])
            == _bits(*_ref_discrete_weak(traj, f, phi, eta)))


def test_discrete_weak_matches_loop(case, block):
    eta = TemporalWeight.smooth_bump(0.1 * N_STEPS * TAU, 0.8 * N_STEPS * TAU)
    assert_discrete_weak_matches_loop(case, eta)


def test_discrete_weak_boundary_term_matches_loop(case, block):
    # a weight that is nonzero at the first step time: the summation-by-parts
    # term at u_0 enters mid and its rounding bound
    eta = TemporalWeight.smooth_bump(0.05 * N_STEPS * TAU, 0.8 * N_STEPS * TAU)
    assert eta(TAU) > 0
    assert_discrete_weak_matches_loop(case, eta)


def test_zero_steps_give_no_dissipation_rows(block):
    f = MOBILITIES["identity"]
    traj = run(DATA["cosine_eps0.9_k1"](M), MobilityMapEnergy(f),
               JkoConfig(tau=TAU, n_steps=0, k=40))
    assert check_entropy_dissipation_f(traj, f, 1.0) == []
    assert traj.step_distances.shape == (0,)


# --- the helpers along the last axis ----------------------------------------

@pytest.mark.parametrize("m", [37, 64, 128, 255, 1024])
def test_helpers_work_row_by_row(m):
    rng = np.random.default_rng(m)
    stack = rng.uniform(0.0, 2.0, (7, m))
    stack[1, :m // 3] = 0.0          # a vacuum: 0 log 0 and the U_FLOOR clip
    stack[2] = 1.0                   # log 1 = 0 everywhere
    u = GridDensity.uniform(UNIT, m)
    h = u.h
    phi = TestFunction.cosine(0.0, 1.0, k=3)
    f = MOBILITIES["power0.7"]
    for i, row in enumerate(stack):
        assert _bits(*d1(stack, h)[i]) == _bits(*d1(row, h)) \
            == _bits(*_ref_d1(row, h))
        assert _bits(*d2(stack, h)[i]) == _bits(*d2(row, h)) \
            == _bits(*_ref_d2(row, h))
        ui = GridDensity(UNIT, row * (m / row.sum()))
        scaled = stack * (m / stack.sum(axis=-1, keepdims=True))
        assert (_bits(*nf_density(f, u, phi, scaled)[i])
                == _bits(*nf_density(f, ui, phi, ui.values))
                == _bits(*_ref_nf_density(f, ui, phi)))
        assert (_bits(boltzmann_entropy(u, scaled)[i])
                == _bits(boltzmann_entropy(ui, ui.values))
                == _bits(_ref_boltzmann_entropy(ui)))


@pytest.mark.parametrize("tau", [1e-6, 3e-5, 1e-4, 1e-2])
def test_temporal_weight_on_an_array_of_times(tau):
    eta = TemporalWeight.smooth_bump(0.1 * 300 * tau, 0.8 * 300 * tau)
    loop = np.array([eta(n * tau) for n in range(1, 302)])
    assert _bits(*eta(np.arange(1, 302) * tau)) == _bits(*loop)
