"""The per-state certificates evaluated in one pass over the stacked states
must give bitwise what their per-state loops gave.

Below are those loops, with the one-dimensional helpers they called, as
references: the dissipation loop verbatim, reading each state as its own
GridDensity rebuilt from its row of the trajectory's values, and the weak
form one map at a time.  Row reductions along the last axis of a contiguous
stack sum each row exactly as the one-dimensional reduction does, so
equality is required bit for bit, not within a tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from gradflow1d import jko
from gradflow1d import (GridDensity, Interval, JkoConfig, MobilityMapEnergy,
                        MobilitySpec, boltzmann_entropy, check_discrete_weak_f,
                        check_entropy_dissipation_f, dissipation_constants,
                        run)
from gradflow1d.diagnostics import U_FLOOR, WEAK_MODES, d2, weak_terms
from gradflow1d.transport import w2sq_between_maps

UNIT = Interval(0.0, 1.0)


# --- the one-dimensional helpers and per-state loops, verbatim --------------

def _ref_d2(w, h):
    wg = np.concatenate([[w[0]], w, [w[-1]]])
    return (wg[2:] - 2 * wg[1:-1] + wg[:-2]) / h ** 2


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


def _ref_discrete_weak(traj, f):
    """The weak form's residuals, bounds and rounding from per-map sums,
    one map and one mode at a time, and the report's worst entry."""
    eps = np.finfo(float).eps
    lo, length = traj.grid.domain.lo, traj.grid.domain.length
    energy = MobilityMapEnergy(f)
    k = traj.positions.shape[-1] - 1
    modes = np.array(WEAK_MODES) * np.pi / length
    n_maps = len(traj.positions)
    mass, grad, mass_err, grad_err = np.empty((4, len(modes), n_maps))
    dx2 = np.empty(n_maps)
    for n, x in enumerate(traj.positions):
        pt = energy.point(x)
        g = energy.value_and_grad(x, pt)[1]
        for j, om in enumerate(modes):
            sines = np.sin(om * (x - lo))
            mass[j, n] = np.sum((sines[1:] - sines[:-1]) / pt.dx) / (k * om)
            grad[j, n] = -om * np.sum(g * sines[1:-1])
        w = f.f(pt.u)
        big_r = (w[:-1] + w[1:]) / pt.s
        q = np.sum(big_r * (np.abs(pt.w1[:-1]) + np.abs(pt.w1[1:])
                            + big_r))
        for j, om in enumerate(modes):
            sigma = (2 + 3 * om * length) * eps
            mass_err[j, n] = 2 * sigma / om * np.sum(pt.u) + (k + 6) * eps
            grad_err[j, n] = om * ((sigma + (k + 5) * eps) * np.sum(np.abs(g))
                                   + 80 * eps * q)
        # squared as the check squares its array of widths: a numpy
        # scalar's ** 2 calls libm pow, which is not correctly rounded
        dx2[n] = np.square(np.max(pt.dx))
    # the per-step combination, elementwise as in the check
    om, tau, w2 = modes[:, None], traj.tau, traj.step_distances
    res = mass[:, 1:] - mass[:, :-1] + tau * grad[:, 1:]
    bound = 0.5 * om ** 2 * w2 ** 2 + om ** 3 / 8 * dx2[1:] * w2
    rounding = mass_err[:, 1:] + mass_err[:, :-1] + tau * grad_err[:, 1:]
    ratio = np.abs(res) / (bound + rounding)
    j, n = np.unravel_index(np.argmax(ratio), ratio.shape)
    worst = (abs(res[j, n]), bound[j, n], rounding[j, n], ratio[j, n])
    return (res, bound, rounding), worst, n + 1, WEAK_MODES[j]


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


def assert_discrete_weak_matches_loop(f, traj):
    rep = check_discrete_weak_f(traj, f)
    arrays, worst, step, mode = _ref_discrete_weak(traj, f)
    for got, ref in zip(weak_terms(traj, f), arrays):
        assert _bits(*got.ravel()) == _bits(*ref.ravel())
    assert (rep.step, rep.context["mode"]) == (step, mode)
    assert (_bits(rep.lhs, rep.rhs, rep.tolerance, rep.context["ratio"])
            == _bits(*worst))
    return rep


def test_discrete_weak_matches_loop(case, block):
    assert_discrete_weak_matches_loop(*case)


def test_discrete_weak_boundary_term_matches_loop(case, block):
    # the term at u_0: only step 1 reads row 0, the initial map.  With each
    # interior node of that map moved right by 0.3 of its narrower cell, on
    # the first five steps (before any copied step), step 1 is the worst
    # entry, and its report must still match the loop's
    f, traj = case
    pos = traj.positions[:6].copy()
    dx = np.diff(pos[0])
    pos[0, 1:-1] += 0.3 * np.minimum(dx[:-1], dx[1:])
    moved = replace(traj, positions=pos,
                    step_distances=traj.step_distances[:5])
    assert assert_discrete_weak_matches_loop(f, moved).step == 1


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
    stack[1, :m // 3] = 0.0          # a vacuum: 0 log 0
    stack[2] = 1.0                   # log 1 = 0 everywhere
    u = GridDensity.uniform(UNIT, m)
    h = u.h
    for i, row in enumerate(stack):
        assert _bits(*d2(stack, h)[i]) == _bits(*d2(row, h)) \
            == _bits(*_ref_d2(row, h))
        ui = GridDensity(UNIT, row * (m / row.sum()))
        scaled = stack * (m / stack.sum(axis=-1, keepdims=True))
        assert (_bits(boltzmann_entropy(u, scaled)[i])
                == _bits(boltzmann_entropy(ui, ui.values))
                == _bits(_ref_boltzmann_entropy(ui)))


@pytest.mark.parametrize("k", [64, 1024])
@pytest.mark.parametrize("name", MOBILITIES)
def test_gradient_of_a_transposed_block_is_the_per_map_gradient(name, k):
    # the weak form's gradient pass: a block of maps, nodes on axis 0 and
    # one map per column, against one call per map, bit for bit; the maps
    # have cell widths within a factor 3 and share their walls
    rng = np.random.default_rng(k)
    widths = rng.uniform(0.5, 1.5, (9, k))
    maps = np.concatenate([np.zeros((9, 1)), np.cumsum(widths, axis=-1)],
                          axis=-1)
    maps /= maps[:, -1:]
    energy = MobilityMapEnergy(MOBILITIES[name])
    block = energy.value_and_grad(maps.T)[1]
    assert block.shape == (k - 1, 9)
    for i, x in enumerate(maps):
        assert _bits(*block[:, i]) == _bits(*energy.value_and_grad(x)[1])
