import numpy as np
import pytest
from scipy.optimize import minimize

from gradflow1d import (ConfigurationError, GridDensity, Interval, JkoConfig,
                        MobilityMapEnergy, MobilitySpec, ThinFilmMapEnergy,
                        TransportMap, check_energy_monotone,
                        check_holder_continuity, check_total_square_distance,
                        jko_step, map_from_density, penalized_objective,
                        refine_study, run, wasserstein2)
from gradflow1d.jko import BW, _Objective
from gradflow1d.transport import w2sq_between_maps

UNIT = Interval(0.0, 1.0)


@pytest.fixture(scope="module")
def thin_traj():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=30, k=128)
    return run(u0, ThinFilmMapEnergy(), cfg)


# --- configuration ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        JkoConfig(tau=-1.0, n_steps=5)
    with pytest.raises(ConfigurationError):
        JkoConfig(tau=1e-4, n_steps=-1)


# --- map energies and objective --------------------------------------------

def test_map_energy_gradient_matches_fd():
    e = MobilityMapEnergy(MobilitySpec.sqrt_mobility())
    rng = np.random.default_rng(2)
    x = np.sort(rng.uniform(0, 1, 40))
    x[0], x[-1] = 0.0, 1.0
    f0, g = e.value_and_grad(x)
    eps = 1e-7
    for i in [0, 5, 20, 39]:
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        fd = (e.value_and_grad(xp)[0] - e.value_and_grad(xm)[0]) / (2 * eps)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_penalized_objective_at_prev_is_energy():
    u = GridDensity.cosine(UNIT, 128, eps=0.4, k=2)
    e = ThinFilmMapEnergy()
    cand = TransportMap(UNIT, map_from_density(u, 64).positions)
    val = penalized_objective(cand, u, tau=1e-3, energy=e)
    assert val == pytest.approx(e.value_and_grad(cand.positions)[0], abs=1e-12)


def test_w2sq_between_maps_translation():
    x = np.linspace(0.0, 0.5, 65)
    h = 0.25
    assert w2sq_between_maps(x, x + h) == pytest.approx(h ** 2, abs=1e-15)


def test_objective_quadratic_term_matches_exact_w2():
    u = GridDensity.cosine(UNIT, 128, eps=0.3, k=1)
    x_prev = map_from_density(u, 64).positions
    x = np.clip(x_prev + 0.01 * np.sin(np.pi * x_prev), 0, 1)
    tau = 1e-3
    obj = _Objective(ThinFilmMapEnergy(), x_prev, tau)
    quad = obj(x)[0] - ThinFilmMapEnergy().value_and_grad(x)[0]
    assert quad == pytest.approx(w2sq_between_maps(x, x_prev) / (2 * tau),
                                 rel=1e-12)


def _fd_hessian(obj, x, eps):
    """Dense central-difference Hessian of the objective's gradient."""
    n = len(x)
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        H[:, j] = (obj(x + e)[1] - obj(x - e)[1]) / (2 * eps)
    return H


@pytest.mark.parametrize("k", [16, 257])
@pytest.mark.parametrize("f", [MobilitySpec.identity(),
                               MobilitySpec.sqrt_mobility(),
                               MobilitySpec.power_mobility(1.0, 0.7)],
                         ids=lambda f: f.name)
def test_exact_hessian_matches_fd(f, k):
    rng = np.random.default_rng(k)
    widths = rng.uniform(0.5, 1.5, k)
    x = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    x_prev = x + 0.1 * rng.uniform(-1, 1, k + 1) * np.diff(x).min()
    obj = _Objective(MobilityMapEnergy(f), x_prev, 1e-4)
    H = obj.hessian_banded(x)
    for off in range(1, BW + 1):  # symmetric banded storage
        assert np.array_equal(H[BW - off, off:], H[BW + off, :-off])
    dense = sum(np.diag(H[BW - off, max(off, 0):k + 1 + min(off, 0)], off)
                for off in range(-BW, BW + 1))
    ref = _fd_hessian(obj, x, 1e-5 * np.diff(x).min())
    assert np.abs(dense - ref).max() <= 1e-6 * np.abs(ref).max()


# --- single steps -----------------------------------------------------------

def test_uniform_is_fixed_point():
    x0 = np.linspace(0, 1, 65)
    xn, fval, conv = jko_step(x0, ThinFilmMapEnergy(), 1e-4, 0.0, 1.0, 1e-9)
    assert conv
    assert np.max(np.abs(xn - x0)) < 1e-9
    assert fval < 1e-15


def test_step_against_brute_force():
    # compare the damped Newton inner solve against a generic quasi-Newton
    # minimization of the same objective on a coarse map
    u0 = GridDensity.cosine(UNIT, 64, eps=0.4, k=2)
    x0 = map_from_density(u0, 16).positions
    tau = 1e-3
    e = ThinFilmMapEnergy()
    obj = _Objective(e, x0, tau)
    xn, fval, _ = jko_step(x0, e, tau, 0.0, 1.0, 1e-9)

    def fun(z):
        x = np.concatenate([[0.0], np.sort(z), [1.0]])
        return obj(x)[0]

    best = np.inf
    rng = np.random.default_rng(0)
    for trial in range(4):
        z0 = x0[1:-1] + (0.0 if trial == 0 else
                         rng.normal(0, 1e-3, len(x0) - 2))
        res = minimize(fun, np.sort(np.clip(z0, 1e-6, 1 - 1e-6)),
                       method="Nelder-Mead",
                       options={"maxiter": 20000, "fatol": 1e-14,
                                "xatol": 1e-10})
        best = min(best, res.fun)
    assert fval <= best + 1e-8


@pytest.mark.parametrize("f", [MobilitySpec.identity(),
                               MobilitySpec.sqrt_mobility()],
                         ids=lambda f: f.name)
def test_stationary_to_working_precision(f):
    # one ulp off the uniform fixed point the gradient is rounding noise far
    # above gtol; with the iteration budget spent the step still counts as
    # converged, while a map far from stationary does not
    e = MobilityMapEnergy(f)
    x = np.linspace(0.0, 1.0, 257)
    x[1:-1:3] = np.nextafter(x[1:-1:3], 2.0)
    assert np.linalg.norm(_Objective(e, x, 1e-4)(x)[1]) > 1e-9
    assert jko_step(x, e, 1e-4, 0.0, 1.0, 1e-9, max_iter=0)[2]
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    x1 = map_from_density(u0, 256).positions
    assert not jko_step(x1, e, 1e-4, 0.0, 1.0, 1e-9, max_iter=0)[2]


def test_step_on_odd_mode_data():
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=3)
    x0 = map_from_density(u0, 256).positions
    e = ThinFilmMapEnergy()
    tau = 1e-5
    f0 = _Objective(e, x0, tau)(x0)[0]
    xn, fval, conv = jko_step(x0, e, tau, 0.0, 1.0, 1e-9)
    assert conv
    assert fval < f0
    assert fval == pytest.approx(_Objective(e, x0, tau)(xn)[0], rel=1e-12)


# --- trajectories -----------------------------------------------------------

def test_run_zero_steps_returns_initial():
    u0 = GridDensity.cosine(UNIT, 64, eps=0.3, k=1)
    traj = run(u0, ThinFilmMapEnergy(), JkoConfig(tau=1e-4, n_steps=0, k=64))
    assert traj.n_steps == 0
    assert traj.states[0] is u0


def test_trajectory_invariants(thin_traj):
    for state in thin_traj.states:
        assert abs(state.mass - 1.0) < 1e-10
        assert np.all(state.values >= 0.0)
    assert all(r.passed for r in check_energy_monotone(thin_traj))
    assert check_total_square_distance(thin_traj).passed
    assert check_holder_continuity(thin_traj).passed
    assert np.all(thin_traj.converged)


def test_interpolant_ceiling_convention(thin_traj):
    tau = thin_traj.tau
    assert thin_traj.state_at(0.0) is thin_traj.states[0]
    assert thin_traj.state_at(0.5 * tau) is thin_traj.states[1]
    assert thin_traj.state_at(tau) is thin_traj.states[1]
    assert thin_traj.state_at(1.5 * tau) is thin_traj.states[2]


def test_relaxation_toward_uniform():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=2e-3, n_steps=60, k=128)
    traj = run(u0, ThinFilmMapEnergy(), cfg)
    assert np.all(np.diff(traj.energies) <= 0)
    assert np.all(np.diff(traj.energies[:5]) < 0)
    assert traj.energies[-1] < 1e-2 * traj.energies[0]
    flat = GridDensity.uniform(UNIT, 128)
    assert wasserstein2(traj.states[-1], flat) < \
        wasserstein2(traj.states[0], flat)


def test_corruption_breaks_dissipation():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=10, k=128)
    traj = run(u0, ThinFilmMapEnergy(), cfg, corrupt_steps=(5,))
    assert traj.energies[5] == pytest.approx(traj.energies[4], abs=1e-15)
    assert traj.step_distances[4] == 0.0


def test_mobility_trajectory_dissipates():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=10, k=128)
    traj = run(u0, MobilityMapEnergy(MobilitySpec.sqrt_mobility()), cfg)
    assert all(r.passed for r in check_energy_monotone(traj))
    assert check_total_square_distance(traj).passed


# --- refinement -------------------------------------------------------------

def test_refine_study_uniform_gaps_vanish():
    u0 = GridDensity.uniform(UNIT, 64)
    cfg = JkoConfig(tau=1e-3, n_steps=4, k=64)
    _, gaps = refine_study(u0, ThinFilmMapEnergy(), cfg, levels=3)
    assert len(gaps) == 2
    assert max(gaps) < 1e-8


def test_refine_study_gaps_shrink():
    u0 = GridDensity.cosine(UNIT, 64, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-3, n_steps=5, k=64)
    _, gaps = refine_study(u0, ThinFilmMapEnergy(), cfg, levels=3)
    assert gaps[1] < gaps[0]
