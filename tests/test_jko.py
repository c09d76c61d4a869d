import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, solve_banded
from scipy.optimize import minimize

from gradflow1d import (ConfigurationError, GridDensity, Interval, JkoConfig,
                        MobilityMapEnergy, MobilitySpec, boltzmann_entropy,
                        check_energy_monotone,
                        check_total_square_distance, densities_from_maps,
                        jko_step, map_from_density, refine_study, run)
from gradflow1d import jko
from gradflow1d.jko import BW, _Objective, _norm
from gradflow1d.transport import w2sq_between_maps
from quantiles import wasserstein2

UNIT = Interval(0.0, 1.0)
MOBILITIES = [MobilitySpec.identity(), MobilitySpec.sqrt_mobility(),
              MobilitySpec.power_mobility(1.0, 0.7)]


def thin_film():
    """A new thin-film energy: some tests patch its methods."""
    return MobilityMapEnergy(MobilitySpec.identity())


def grad(obj, x):
    """The objective's gradient in the interior nodes of x."""
    return obj.grad(x, obj.value(x)[1])


def hessian(obj, x):
    """The interior band block of the objective's Hessian at x, from x's
    record after its gradient, as the solver builds it."""
    pt = obj.value(x)[1]
    obj.grad(x, pt)
    return obj.energy.hessian(pt, obj.mass)


@pytest.fixture(scope="module")
def thin_traj():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=30, k=128)
    return run(u0, thin_film(), cfg)


# --- configuration ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        JkoConfig(tau=-1.0, n_steps=5)
    with pytest.raises(ConfigurationError):
        JkoConfig(tau=1e-4, n_steps=-1)
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            JkoConfig(tau=tau, n_steps=5)


# --- map energies and objective --------------------------------------------

def test_map_energy_gradient_matches_fd():
    e = MobilityMapEnergy(MobilitySpec.sqrt_mobility())
    rng = np.random.default_rng(2)
    x = np.sort(rng.uniform(0, 1, 40))
    x[0], x[-1] = 0.0, 1.0
    f0, g = e.value_and_grad(x)
    assert len(g) == len(x) - 2  # the interior nodes: the walls stay put
    eps = 1e-7
    for i in [1, 5, 20, 38]:
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        fd = (e.value_and_grad(xp)[0] - e.value_and_grad(xm)[0]) / (2 * eps)
        assert g[i - 1] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_w2sq_between_maps_translation():
    x = np.linspace(0.0, 0.5, 65)
    h = 0.25
    assert w2sq_between_maps(x, x + h) == pytest.approx(h ** 2, abs=1e-15)


def test_objective_quadratic_term_matches_exact_w2():
    u = GridDensity.cosine(UNIT, 128, eps=0.3, k=1)
    x_prev = map_from_density(u, 64)
    x = np.clip(x_prev + 0.01 * np.sin(np.pi * x_prev), 0, 1)
    tau = 1e-3
    obj = _Objective(thin_film(), x_prev, tau)
    quad = obj.value(x)[0] - thin_film().value_and_grad(x)[0]
    assert quad == pytest.approx(w2sq_between_maps(x, x_prev) / (2 * tau),
                                 rel=1e-12)


def _fd_hessian(obj, x, eps):
    """Central-difference derivatives of the objective's interior gradient
    in every node: the Hessian's interior rows, densely."""
    n = len(x)
    H = np.empty((n - 2, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        H[:, j] = (grad(obj, x + e) - grad(obj, x - e)) / (2 * eps)
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
    H = hessian(obj, x)
    assert H.shape == (2 * BW + 1, k - 1)
    for off in range(1, BW + 1):  # symmetric banded storage
        assert np.array_equal(H[BW - off, off:], H[BW + off, :-off])
    # the interior rows densely: entry (i, n) of the node Hessian sits at
    # H[BW + i - n, n - 1]; the corners hold the walls' rows, whose entries
    # are, by symmetry, the interior rows' couplings to the walls, and 0
    # outside the matrix.  The fixed walls' own rows are never read
    dense = np.zeros((k - 1, k + 1))
    for row in range(2 * BW + 1):
        for n in range(1, k):
            i = row - BW + n
            if 1 <= i < k:
                dense[i - 1, n] = H[row, n - 1]
            elif i in (0, k):
                dense[n - 1, i] = H[row, n - 1]
            else:
                assert H[row, n - 1] == 0.0
    ref = _fd_hessian(obj, x, 1e-5 * np.diff(x).min())
    assert np.abs(dense - ref).max() <= 1e-6 * np.abs(ref).max()


# --- single steps -----------------------------------------------------------

def test_uniform_is_fixed_point():
    x0 = np.linspace(0, 1, 65)
    e = thin_film()
    xn, fval, _, conv = jko_step(x0, e, 1e-4, 1e-9, e.value(x0))
    assert conv
    assert np.max(np.abs(xn - x0)) < 1e-9
    assert fval < 1e-15


def test_step_against_brute_force():
    # compare the damped Newton inner solve against a generic quasi-Newton
    # minimization of the same objective on a coarse map
    u0 = GridDensity.cosine(UNIT, 64, eps=0.4, k=2)
    x0 = map_from_density(u0, 16)
    tau = 1e-3
    e = thin_film()
    obj = _Objective(e, x0, tau)
    xn, fval, _, _ = jko_step(x0, e, tau, 1e-9, e.value(x0))

    def fun(z):
        x = np.concatenate([[0.0], np.sort(z), [1.0]])
        return obj.value(x)[0]

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
def test_stationary_to_working_precision(f, monkeypatch):
    # one ulp off the uniform fixed point the gradient is rounding noise far
    # above gtol; with the iteration budget spent the step still counts as
    # converged, while a map far from stationary does not
    e = MobilityMapEnergy(f)
    x = np.linspace(0.0, 1.0, 257)
    x[1:-1:3] = np.nextafter(x[1:-1:3], 2.0)
    assert np.linalg.norm(grad(_Objective(e, x, 1e-4), x)) > 1e-9
    monkeypatch.setattr(jko, "MAX_ITER", 0)
    assert jko_step(x, e, 1e-4, 1e-9, e.value(x))[3]
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    x1 = map_from_density(u0, 256)
    assert not jko_step(x1, e, 1e-4, 1e-9, e.value(x1))[3]


def test_norm_of_a_non_finite_vector():
    # an infinite entry gives an infinite norm, not the NaN of a rescale by
    # max|g|; a NaN entry gives NaN
    assert _norm(np.array([1.0, -np.inf, 2.0])) == np.inf
    assert np.isnan(_norm(np.array([1.0, np.nan])))


def test_step_on_odd_mode_data():
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=3)
    x0 = map_from_density(u0, 256)
    e = thin_film()
    tau = 1e-5
    f0 = _Objective(e, x0, tau).value(x0)[0]
    xn, fval, _, conv = jko_step(x0, e, tau, 1e-9, e.value(x0))
    assert conv
    assert fval < f0
    assert fval == pytest.approx(
        _Objective(e, x0, tau).value(xn)[0], rel=1e-12)


# --- trajectories -----------------------------------------------------------

def test_run_zero_steps_returns_initial():
    u0 = GridDensity.cosine(UNIT, 64, eps=0.3, k=1)
    traj = run(u0, thin_film(), JkoConfig(tau=1e-4, n_steps=0, k=64))
    assert traj.n_steps == 0
    assert traj.grid is u0
    assert traj.positions.shape == (1, 65) and traj.values.shape == (1, 64)
    assert np.array_equal(traj.values[0], u0.values)


def test_trajectory_invariants(thin_traj):
    h = thin_traj.grid.h
    assert np.all(np.abs(thin_traj.values.sum(axis=1) * h - 1.0) < 1e-10)
    assert np.all(thin_traj.values >= 0.0)
    assert all(r.passed for r in check_energy_monotone(thin_traj))
    assert check_total_square_distance(thin_traj).passed
    assert np.all(thin_traj.converged)


def test_interpolant_ceiling_convention(thin_traj):
    tau = thin_traj.tau
    assert thin_traj.step_index(0.0) == 0
    assert thin_traj.step_index(0.5 * tau) == 1
    assert thin_traj.step_index(tau) == 1
    assert thin_traj.step_index(1.5 * tau) == 2
    # an array of times, clipped to the rows that exist
    times = np.array([-tau, 0.5 * tau, 1e3 * tau])
    assert thin_traj.step_index(times).tolist() == [0, 1, thin_traj.n_steps]


def test_relaxation_toward_uniform():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=2e-3, n_steps=60, k=128)
    traj = run(u0, thin_film(), cfg)
    assert np.all(np.diff(traj.energies) <= 0)
    assert np.all(np.diff(traj.energies[:5]) < 0)
    assert traj.energies[-1] < 1e-2 * traj.energies[0]
    flat = GridDensity.uniform(UNIT, 128)
    assert wasserstein2(GridDensity(UNIT, traj.values[-1]), flat) < \
        wasserstein2(u0, flat)


def test_corruption_breaks_dissipation(copied_steps):
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=10, k=128)
    with copied_steps(5):
        traj = run(u0, thin_film(), cfg)
    assert traj.energies[5] == pytest.approx(traj.energies[4], abs=1e-15)
    assert traj.step_distances[4] == 0.0


def test_mobility_trajectory_dissipates():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=10, k=128)
    traj = run(u0, MobilityMapEnergy(MobilitySpec.sqrt_mobility()), cfg)
    assert all(r.passed for r in check_energy_monotone(traj))
    assert check_total_square_distance(traj).passed


# --- batched resampling -----------------------------------------------------

def assert_states_are_pushforwards(traj, u0):
    # run resamples in blocks after stepping; each state and entropy must be
    # what resampling its map alone gives
    assert traj.grid is u0
    assert len(traj.values) == len(traj.positions) == traj.n_steps + 1
    single = [u0] + [GridDensity(u0.domain, densities_from_maps(
        u0.domain, x[None], u0.m)[0]) for x in traj.positions[1:]]
    for v, ref in zip(traj.values, single):
        assert np.array_equal(v, ref.values)
    assert np.array_equal(traj.entropies,
                          [boltzmann_entropy(u, u.values) for u in single])


@pytest.mark.parametrize("u0", [GridDensity.cosine(UNIT, 64, eps=0.9, k=1),
                                GridDensity.cosine(UNIT, 64, eps=0.5, k=3),
                                GridDensity.bump(UNIT, 64),
                                GridDensity.cosine(UNIT, 48, eps=0.5, k=3)],
                         ids=["k1", "k3", "bump", "k3-m48"])
@pytest.mark.parametrize("n_steps", [0, 1, 6])
def test_run_states_match_one_map_at_a_time(u0, n_steps):
    traj = run(u0, thin_film(), JkoConfig(tau=1e-4, n_steps=n_steps, k=96))
    assert_states_are_pushforwards(traj, u0)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_run_resamples_in_blocks(extra):
    # m = 256 cells take RESAMPLE_BLOCK // 257 maps per block; step counts
    # on both sides of the first block boundary
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=3)
    rows = jko.RESAMPLE_BLOCK // 257
    n_steps = rows + extra
    sizes = []
    batch = jko.densities_from_maps

    def spy(domain, positions, m):
        sizes.append(len(positions))
        return batch(domain, positions, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jko, "densities_from_maps", spy)
        traj = run(u0, MobilityMapEnergy(MobilitySpec.sqrt_mobility()),
                   JkoConfig(tau=1e-4, n_steps=n_steps, k=32))
    assert sizes == [min(n_steps, rows)] + [1] * (extra == 1)
    assert_states_are_pushforwards(traj, u0)


def test_run_resamples_corrupted_steps(copied_steps):
    u0 = GridDensity.cosine(UNIT, 64, eps=0.5, k=1)
    with copied_steps(1, 3):
        traj = run(u0, thin_film(), JkoConfig(tau=1e-4, n_steps=4, k=64))
    assert_states_are_pushforwards(traj, u0)
    assert np.array_equal(traj.values[3], traj.values[2])
    # a step's energy is bitwise that of its map, a corrupted one included
    assert traj.energies.tolist() == [thin_film().value(x)
                                      for x in traj.positions]


# --- refinement -------------------------------------------------------------

def test_refine_study_uniform_gaps_vanish():
    u0 = GridDensity.uniform(UNIT, 64)
    cfg = JkoConfig(tau=1e-3, n_steps=4, k=64)
    _, gaps = refine_study(u0, thin_film(), cfg, levels=3)
    assert len(gaps) == 2
    assert max(gaps) < 1e-8


def test_refine_study_gaps_shrink():
    u0 = GridDensity.cosine(UNIT, 64, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-3, n_steps=5, k=64)
    _, gaps = refine_study(u0, thin_film(), cfg, levels=3)
    assert gaps[1] < gaps[0]


@pytest.mark.parametrize("f", MOBILITIES[:2], ids=lambda f: f.name)
def test_refine_study_gaps_match_per_stamp_loop(f):
    # one batched distance per pair of levels gives bitwise the maximum of
    # the per-stamp distances between the levels' maps at n = ceil(t/tau)
    u0 = GridDensity.cosine(UNIT, 64, eps=0.5, k=3)
    cfg = JkoConfig(tau=1e-4, n_steps=5, k=64)
    trajs, gaps = refine_study(u0, MobilityMapEnergy(f), cfg, levels=3)

    def row(traj, t):
        n = min(int(np.ceil(t / traj.tau - 1e-12)), traj.n_steps)
        return traj.positions[max(n, 0)]

    stamps = np.arange(1, 6) * 1e-4
    ref = [max(float(np.sqrt(w2sq_between_maps(row(a, t), row(b, t))))
               for t in stamps) for a, b in zip(trajs[:-1], trajs[1:])]
    assert gaps == ref


# --- extrapolated start and final Newton step ------------------------------

def test_run_starts_from_the_extrapolated_map(monkeypatch):
    # step 2 gets 2 x_1 - x_0 in the interior and step n > 2 the
    # second-order 3 x_{n-1} - 3 x_{n-2} + x_{n-3}, with x_{n-1}'s walls and
    # the stored energy of x_{n-1} as the descent bound
    calls = []
    step = jko.jko_step

    def spy(x_prev, *args, **kwargs):
        calls.append((x_prev.copy(), kwargs["x_start"], kwargs["phi_prev"]))
        return step(x_prev, *args, **kwargs)

    monkeypatch.setattr(jko, "jko_step", spy)
    dom = Interval(-1.0, 2.0)
    u0 = GridDensity.cosine(dom, 64, eps=0.5, k=3)
    traj = run(u0, thin_film(), JkoConfig(tau=1e-4, n_steps=5, k=64))
    pos = traj.positions[:, 1:-1]
    assert [np.array_equal(c[0], p)
            for c, p in zip(calls, traj.positions)] == [True] * 5
    assert calls[0][1] is None
    assert np.array_equal(calls[1][1][1:-1], 2 * pos[1] - pos[0])
    for n, (_, start, _) in enumerate(calls[2:], 3):
        assert np.array_equal(start[1:-1],
                              3 * (pos[n - 1] - pos[n - 2]) + pos[n - 3])
    for _, start, _ in calls[1:]:
        assert (start[0], start[-1]) == (dom.lo, dom.hi)
    assert [c[2] for c in calls] == traj.energies[:-1].tolist()


DESCENT_DATA = {
    "cosine_k3-identity": (GridDensity.cosine(UNIT, 64, eps=0.5, k=3),
                           MobilitySpec.identity(), ()),
    "cosine_eps0.9_k1-identity": (GridDensity.cosine(UNIT, 64, eps=0.9, k=1),
                                  MobilitySpec.identity(), ()),
    "bump-power0.7": (GridDensity.bump(UNIT, 64),
                      MobilitySpec.power_mobility(1.0, 0.7), ()),
    "cosine_eps0.9_k1-sqrt-corrupted": (
        GridDensity.cosine(UNIT, 64, eps=0.9, k=1),
        MobilitySpec.sqrt_mobility(), (5,)),
}


@pytest.mark.parametrize("tau", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("name", DESCENT_DATA)
def test_every_step_descends_from_the_previous_map(name, tau, copied_steps):
    # Psi(x_n) <= Phi(x_{n-1}), the bound the energy estimates rest on,
    # wherever Newton started; tau = 1e-2 runs to equilibrium
    u0, f, corrupt = DESCENT_DATA[name]
    e = MobilityMapEnergy(f)
    with copied_steps(*corrupt):
        traj = run(u0, e, JkoConfig(tau=tau, n_steps=30, k=64))
    pos, energies = traj.positions, traj.energies
    for n in range(1, len(pos)):
        psi = _Objective(e, pos[n - 1], tau).value(pos[n])[0]
        assert psi <= energies[n - 1]


def _rejected_starts(x, e, tau):
    """Starts jko_step must not use: not monotone, a cell narrower than the
    gap, x itself (Psi equal to Phi(x), not below), and a monotone map
    whose Psi is above Phi(x)."""
    crossed, thin, rough = x.copy(), x.copy(), x.copy()
    crossed[[10, 11]] = crossed[[11, 10]]
    thin[11] = thin[10] + 0.5 * UNIT.gap
    rough[1:-1] += 0.3 * np.diff(x).min() * (-1.0) ** np.arange(len(x) - 2)
    assert (np.diff(rough) > UNIT.gap).all()
    assert _Objective(e, x, tau).value(rough)[0] > e.value(x)
    return {"crossed": crossed, "thin": thin, "same": x.copy(),
            "rough": rough}


@pytest.mark.parametrize("start", ["crossed", "thin", "same", "rough"])
@pytest.mark.parametrize("f", MOBILITIES, ids=lambda f: f.name)
def test_rejected_start_gives_the_step_from_x_prev(f, start):
    e = MobilityMapEnergy(f)
    x = map_from_density(GridDensity.cosine(UNIT, 64, eps=0.5, k=3), 64)
    tau = 1e-4
    ref = jko_step(x, e, tau, UNIT.gap, e.value(x))
    out = jko_step(x, e, tau, UNIT.gap, e.value(x),
                   x_start=_rejected_starts(x, e, tau)[start])
    assert np.array_equal(out[0], ref[0])
    assert out[1:] == ref[1:]


def _polished(x_prev, x, energy, tau):
    """x after 4 undamped Newton steps on the step's objective, each solving
    the interior block with scipy's solve_banded."""
    obj = _Objective(energy, x_prev, tau)
    x = x.copy()
    for _ in range(4):
        x[1:-1] += solve_banded((BW, BW), hessian(obj, x), -grad(obj, x))
    return x


@pytest.mark.parametrize("K, tau", [(64, 1e-4), (256, 1e-5), (1024, 1e-5)])
@pytest.mark.parametrize("f", MOBILITIES[:2], ids=lambda f: f.name)
def test_steps_reach_their_polished_minimizers(f, K, tau):
    # every step but the first starts from the extrapolated map; the final
    # full Newton step brings each map to its minimizer, which stopping on
    # the predicted decrease alone would leave up to 2.2e-10 away
    e = MobilityMapEnergy(f)
    u0 = GridDensity.cosine(UNIT, K, eps=0.5, k=3)
    pos = run(u0, e, JkoConfig(tau=tau, n_steps=20, k=K)).positions
    for n in range(1, len(pos)):
        err = np.abs(_polished(pos[n - 1], pos[n], e, tau) - pos[n]).max()
        assert err <= 2e-11


@pytest.mark.parametrize("tau", [1e-5, 1e-4])
@pytest.mark.parametrize("f", MOBILITIES[:2], ids=lambda f: f.name)
def test_steps_factor_about_one_hessian(monkeypatch, f, tau):
    # one Newton step from the extrapolated start, then the last step along
    # that step's LU: about one Hessian per step (two without the chord
    # step).  Stiffer data, such as mode 3 at K = 256 and tau = 1e-5, take
    # two Newton iterations per step and so two Hessians
    count = []
    hessian = MobilityMapEnergy.hessian
    monkeypatch.setattr(MobilityMapEnergy, "hessian",
                        lambda self, *a: count.append(1) or hessian(self, *a))
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=1)
    traj = run(u0, MobilityMapEnergy(f), JkoConfig(tau=tau, n_steps=20,
                                                   k=256))
    assert traj.converged.all()
    assert len(count) <= 1.3 * 20


@pytest.mark.parametrize("u0, f, tau", [
    (GridDensity.bump(UNIT, 64), MobilitySpec.power_mobility(1.0, 0.7), 1e-5),
    (GridDensity.cosine(UNIT, 64, eps=0.9, k=1), MobilitySpec.identity(),
     1e-2)], ids=["bump-power0.7", "cosine_eps0.9_k1-identity"])
def test_damped_lu_is_never_reused(monkeypatch, u0, f, tau):
    # a solve right after a factorization is that trial's direction; any
    # other solve is a chord step on the LU left by the previous point,
    # which must be undamped
    events = []
    factor, solve = jko._factor, jko._gbtrs
    monkeypatch.setattr(jko, "_factor", lambda ab, band, lam: (
        events.append(("factor", lam)) or factor(ab, band, lam)))
    monkeypatch.setattr(jko, "_gbtrs", lambda *a: (
        events.append(("solve", None)) or solve(*a)))
    hessian = MobilityMapEnergy.hessian
    monkeypatch.setattr(MobilityMapEnergy, "hessian", lambda self, *a: (
        events.append(("hessian", None)) or hessian(self, *a)))
    e = MobilityMapEnergy(f)
    grad = e.value_and_grad
    e.value_and_grad = lambda *a: events.append(("grad", None)) or grad(*a)
    run(u0, e, JkoConfig(tau=tau, n_steps=20, k=64))
    kinds = [kind for kind, _ in events]
    lam, chords, damped_then_hessian = None, 0, 0
    for i, (kind, value) in enumerate(events):
        if kind == "factor":
            lam = value
        elif kind == "solve" and kinds[i - 1] != "factor":
            chords += 1
            assert lam == 0
        # a damped direction accepted, and its next point's Newton system
        # assembled afresh
        if (kinds[i:i + 4] == ["factor", "solve", "grad", "hessian"]
                and value > 0):
            damped_then_hessian += 1
    assert chords > 0 and damped_then_hessian > 0


# amplitudes a_1..a_4 of the benchmark's seed-7 datum 0: u0 is
# 1 + sum_j a_j cos(j pi x) at the cell midpoints, scaled to unit mass
BENCH_DATUM = [0.050038186641866794, 0.15888552038783021,
               0.11027427609807741, -0.10991712400376326]


def _bench_datum(m):
    x = (np.arange(m) + 0.5) / m
    u = 1.0 + np.asarray(BENCH_DATUM) @ np.cos(
        np.arange(1, 5)[:, None] * np.pi * x)
    return GridDensity.from_samples(UNIT, u / (u.sum() / m))


# Each step's objective values, gradients, Hessians, factorizations and
# banded solves, one digit each, over the first 20 steps: the acceptance
# fixture (cosine eps=0.5 k=2, K=256, tau=1e-4) and datum 0 of the three
# benchmark workloads; and the fixture's totals over its 200 steps, whose
# last 16 stall at the rounding floor (ROADMAP item 7)
EVALUATIONS = {
    "fixture": (GridDensity.cosine(UNIT, 256, eps=0.5, k=2),
                MobilitySpec.identity(), 1e-4, 256,
                "55448 54336 43224 54336 54336 54336 43224 43224 43224 43224 "
                "43224 43224 43224 43224 43224 43224 43224 43224 43224 43224"),
    "dynamic_k1024": (_bench_datum(1024), MobilitySpec.identity(), 1e-5, 1024,
                      "44336 43224 43224 43224 43224 43224 43224 43224 43224 "
                      "43224 43224 43224 43224 43224 43224 43224 43224 43224 "
                      "32112 32112"),
    "relax_long": (_bench_datum(128), MobilitySpec.identity(), 1e-4, 64,
                   "55448 54336 54336 54336 54336 43224 43224 43224 43224 "
                   "43224 43224 43224 43224 43224 43224 43224 43224 43224 "
                   "43224 43224"),
    "sweep_sqrt": (_bench_datum(256), MobilitySpec.sqrt_mobility(), 1e-5, 256,
                   "44336 43224 43224 43224 43224 43224 43224 43224 32112 "
                   "32112 32112 32112 32112 32112 32112 32112 32112 32112 "
                   "32112 32112"),
}
FIXTURE_TOTALS = [6314, 606, 406, 481, 745]


def _count_evaluations(monkeypatch, u0, f, tau, k, n_steps):
    """Each step's counts of objective values, gradients, Hessians,
    factorizations and banded solves, taken through the solver's seams."""
    total = [0] * 5
    seams = [(_Objective, "value"), (MobilityMapEnergy, "value_and_grad"),
             (MobilityMapEnergy, "hessian"), (jko, "_gbtrf"), (jko, "_gbtrs")]
    for i, (owner, name) in enumerate(seams):
        def counted(*a, _fn=getattr(owner, name), _i=i, **kw):
            total[_i] += 1
            return _fn(*a, **kw)
        monkeypatch.setattr(owner, name, counted)
    steps = []
    step = jko.jko_step

    def spy(*a, **kw):
        before = total.copy()
        out = step(*a, **kw)
        steps.append([t - b for t, b in zip(total, before)])
        return out

    monkeypatch.setattr(jko, "jko_step", spy)
    run(u0, MobilityMapEnergy(f), JkoConfig(tau=tau, n_steps=n_steps, k=k))
    return steps


@pytest.mark.parametrize("name", EVALUATIONS)
def test_steps_keep_their_evaluation_counts(monkeypatch, name):
    # the same iterates cost the same work: every line-search trial one
    # value, every accepted point one gradient, at most one Hessian each
    u0, f, tau, k, expected = EVALUATIONS[name]
    n_steps = 200 if name == "fixture" else 20
    steps = _count_evaluations(monkeypatch, u0, f, tau, k, n_steps)
    assert " ".join("".join(map(str, c)) for c in steps[:20]) == expected
    if name == "fixture":
        assert np.sum(steps, axis=0).tolist() == FIXTURE_TOTALS


# --- exact symmetries of the scheme ----------------------------------------

@pytest.mark.parametrize("C", [10.0, 1e3, 1e20, 1e60])
def test_mobility_constant_rescales_time(C):
    # for f = C z^alpha, Psi_{C, tau} = C^2 Psi_{1, C^2 tau}: a run at
    # (C, tau) has the minimizers of the run at (1, C^2 tau), and C^2 times
    # its energies.  Measured: maps within 1.1e-16 and energy ratios within
    # 1.1e-15 of C^2; the bounds leave room for the rounding of C z^alpha
    u0 = GridDensity.cosine(UNIT, 64, eps=0.9, k=1)
    ref = run(u0, MobilityMapEnergy(MobilitySpec.power_mobility(1.0, 0.7)),
              JkoConfig(tau=1e-4, n_steps=30, k=64))
    out = run(u0, MobilityMapEnergy(MobilitySpec.power_mobility(C, 0.7)),
              JkoConfig(tau=1e-4 / C ** 2, n_steps=30, k=64))
    assert np.abs(out.positions - ref.positions).max() <= 1e-15
    assert np.abs(out.energies / (C * C * ref.energies) - 1).max() <= 1e-14
    assert np.array_equal(out.converged, ref.converged)


@pytest.mark.parametrize("f", MOBILITIES[:2], ids=lambda f: f.name)
def test_mirrored_datum_gives_mirrored_maps(f):
    # x -> lo + hi - x maps the bump centred at 0.3 onto the one centred at
    # 0.7, and each map of one run onto the other's, up to the rounding of
    # the two data.  Measured: maps within 3.4e-16, energies within
    # 2.0e-15 (thin film) and 3.7e-15 (sqrt) relative.  At other centres
    # the df = 0 stop of `jko_step` can end the two runs' first step at
    # different points (ROADMAP item 7)
    runs = [run(GridDensity.bump(UNIT, 128, center=c), MobilityMapEnergy(f),
                JkoConfig(tau=1e-4, n_steps=30, k=128)) for c in (0.3, 0.7)]
    a, b = runs
    assert np.abs(a.positions[:, ::-1] - (1.0 - b.positions)).max() <= 1e-13
    assert np.abs(a.energies / b.energies - 1).max() <= 1e-13
    assert np.array_equal(a.converged, b.converged)


def _dilated_runs(f, L, m, k):
    """The run of the mode-3 cosine on [0, 1] and on [0, L]: for f = z^alpha
    the energy scales as Phi(u_L) = L^-(2 alpha + 1) Phi(u) and W2^2 as L^2,
    so with tau' = tau L^(2 alpha + 3) the step objectives are proportional
    and the maps of the second run are L times those of the first."""
    alpha = {"identity": 1.0, "sqrt": 0.5}[f.name]
    ref, out = (run(GridDensity.cosine(Interval(0.0, length), m, eps=0.5, k=3),
                    MobilityMapEnergy(f),
                    JkoConfig(tau=1e-4 * length ** (2 * alpha + 3),
                              n_steps=40, k=k))
                for length in (1.0, L))
    assert np.array_equal(out.converged, ref.converged)
    return ref, out, L ** -(2 * alpha + 1)


@pytest.mark.parametrize("m, k", [(64, 64), (128, 96)])
def test_dilation_by_two_scales_thin_film_maps_exactly(m, k):
    # at L = 2 (tau' = 32 tau) every scaling is by a power of two, which
    # rounds nothing: the maps and energies are the same bits
    ref, out, scale = _dilated_runs(MobilitySpec.identity(), 2.0, m, k)
    assert np.array_equal(out.positions, 2.0 * ref.positions)
    assert np.array_equal(out.energies, scale * ref.energies)


@pytest.mark.parametrize("m, k", [(64, 64), (128, 96)])
@pytest.mark.parametrize("f, L", [(MobilitySpec.identity(), 3.0),
                                  (MobilitySpec.sqrt_mobility(), 2.0),
                                  (MobilitySpec.sqrt_mobility(), 3.0)],
                         ids=["thin_film-3", "sqrt-2", "sqrt-3"])
def test_dilation_scales_maps_and_energies(f, L, m, k):
    # up to the rounding of the dilated data and of sqrt.  Measured, worst
    # at sqrt, L = 3, m = 128: nodes within 4.6e-12 L and energies within
    # 2.0e-14 Phi(u0); the bounds leave 2x and 5x.  The energies fall to
    # 1e-17 Phi(u0), so they are compared on the scale of Phi(u0)
    ref, out, scale = _dilated_runs(f, L, m, k)
    assert np.abs(out.positions - L * ref.positions).max() / L <= 1e-11
    e = scale * ref.energies
    assert np.abs(out.energies - e).max() / e[0] <= 1e-13


# --- parity of the inner loop with the plain damped Newton loop -------------

def _reference_jko_step(x_prev, energy, tau, gap, max_iter=60, gtol=1e-11,
                        ftol=1e-15):
    """The inner loop in its plain form: the end nodes stay on the walls,
    every line-search trial evaluates value and gradient, each Hessian
    recomputes its interface arrays, and the interior block goes to scipy's
    solve_banded.  An undamped step predicting less than ftol of decrease is
    taken whole if it keeps the cells and the start's value, and ends the
    loop; after an undamped accepted step, the previous Hessian's direction
    at the new point is tried first as that last step.  jko_step must
    return bitwise what this returns."""
    obj = _Objective(energy, x_prev, tau)
    x = x_prev.copy()
    f, g = obj.value(x)[0], grad(obj, x)
    f0 = f
    gref = max(np.linalg.norm(g), 1e-30)
    lam = 0.0
    H_prev = None  # the previous iteration's Hessian, if undamped
    converged = np.linalg.norm(g) <= gtol
    for _ in range(max_iter if not converged else 0):
        moved = final = False
        if H_prev is not None:
            try:
                p = solve_banded((BW, BW), H_prev, -g)
                final = (p @ g < -1e-30
                         and -0.5 * (p @ g) <= ftol * max(abs(f), 1e-30))
            except (ValueError, np.linalg.LinAlgError):
                pass
        if not final:
            H = hessian(obj, x)
        for _trial in range(0 if final else 30):
            Hd = H.copy()
            Hd[BW] += lam
            try:
                p = solve_banded((BW, BW), Hd, -g)
            except (ValueError, np.linalg.LinAlgError):
                p = None
            if p is not None and p @ g < -1e-30:
                final = (lam == 0
                         and -0.5 * (p @ g) <= ftol * max(abs(f), 1e-30))
                if final:
                    break
                alpha = 1.0
                for _ in range(40):
                    xn = np.concatenate(([x[0]], x[1:-1] + alpha * p, [x[-1]]))
                    if np.all(np.diff(xn) > gap):
                        fn, gn = obj.value(xn)[0], grad(obj, xn)
                        if fn <= f + 1e-4 * alpha * (p @ g) or (fn < f and alpha < 1e-6):
                            moved = True
                            break
                    alpha *= 0.5
                if moved:
                    break
            lam = 1e-3 * np.abs(H[BW]).max() if lam == 0 else 10 * lam
        if final:
            xn = np.concatenate(([x[0]], x[1:-1] + p, [x[-1]]))
            if (np.all(np.diff(xn) > gap)
                    and obj.value(xn)[0] <= f0):
                x, f = xn, obj.value(xn)[0]
            converged = True
            break
        if not moved:
            break
        H_prev = H if lam == 0 else None
        df = f - fn
        x, f, g = xn, fn, gn
        lam *= 0.1
        if np.linalg.norm(g) < gtol * gref or df < ftol * max(abs(f), 1e-30):
            converged = True
            break
    if not converged:
        ulp = np.spacing(max(abs(x[0]), abs(x[-1])))
        row = np.abs(hessian(obj, x)).sum(axis=0)
        converged = bool(np.all(np.abs(g) <= ulp * row))
    return x, f, converged


def _same_step(x, energy, tau):
    ref = _reference_jko_step(x, energy, tau, UNIT.gap, jko.MAX_ITER)
    out = jko_step(x, energy, tau, UNIT.gap, energy.value(x))
    assert np.array_equal(out[0], ref[0])
    assert out[1] == ref[1]
    assert out[3] == ref[2]
    # the energy part of the objective value is bitwise the map's energy
    assert out[2] == energy.value(out[0])
    return out


@pytest.mark.parametrize("f", MOBILITIES, ids=lambda f: f.name)
def test_value_matches_value_and_grad(f):
    e = MobilityMapEnergy(f)
    rng = np.random.default_rng(3)
    for k in (16, 257):
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, k))])
        x /= x[-1]
        move = 0.01 * rng.uniform(-1, 1, k + 1) / k
        move[[0, -1]] = 0.0  # the walls stay put
        obj = _Objective(e, x + move, 1e-4)
        assert e.value(x) == e.value_and_grad(x)[0]
        # a record from given widths serves the gradient and the Hessian
        # bitwise as one built afresh from x
        psi, pt = obj.value(x, x[1:] - x[:-1])
        assert (psi, pt.phi) == (obj.value(x)[0], e.value(x))
        assert np.array_equal(obj.grad(x, pt), grad(obj, x))
        assert np.array_equal(e.hessian(pt, obj.mass), hessian(obj, x))


@pytest.mark.parametrize("tau", [1e-5, 1e-4, 1e-2])
@pytest.mark.parametrize("k", [16, 64, 1024])
@pytest.mark.parametrize("f", MOBILITIES, ids=lambda f: f.name)
def test_step_matches_reference(f, k, tau):
    # two steps from even (k=2) and odd (k=3) cosine data
    e = MobilityMapEnergy(f)
    for mode in (2, 3):
        x = map_from_density(GridDensity.cosine(UNIT, k, eps=0.5, k=mode), k)
        for _ in range(2):
            x = _same_step(x, e, tau)[0]


@pytest.mark.parametrize("mode", [1, 3])
@pytest.mark.parametrize("f", MOBILITIES, ids=lambda f: f.name)
def test_odd_mode_steps_keep_both_walls(f, mode):
    # an odd mode moves mass from one wall towards the other; both end
    # nodes stay exactly on the walls while the interior moves
    dom = Interval(-1.0, 2.0)
    u0 = GridDensity.cosine(dom, 64, eps=0.5, k=mode)
    traj = run(u0, MobilityMapEnergy(f), JkoConfig(tau=1e-2, n_steps=5, k=64))
    assert np.all(traj.positions[:, 0] == dom.lo)
    assert np.all(traj.positions[:, -1] == dom.hi)
    assert np.abs(traj.positions[-1] - traj.positions[0]).max() > 1e-3


def test_stationary_exit_matches_reference(monkeypatch):
    # the acceptance fixture's step 185 starts at the rounding floor and
    # takes 12 noise-sized Newton iterations; on a budget of 8 it spends the
    # budget and is converged only by the working-precision stationarity
    # test
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    traj = run(u0, thin_film(), JkoConfig(tau=1e-4, n_steps=184, k=256))
    x = traj.positions[-1]
    monkeypatch.setattr(jko, "MAX_ITER", 8)
    assert _same_step(x, thin_film(), 1e-4)[3]
    e = thin_film()
    grads = []
    value_and_grad = e.value_and_grad
    e.value_and_grad = lambda *a: grads.append(1) or value_and_grad(*a)
    jko_step(x, e, 1e-4, UNIT.gap, e.value(x))
    assert len(grads) == 9  # the start and all 8 accepted iterations


# --- parity with the free-wall solver where its walls never moved ----------
# The solver this one replaced let a wall node leave its wall through an
# endpoint active set.  On even-mode data at small steps its walls stayed
# put, so holding them fixed must give bitwise its results there.  Below is
# that solver verbatim, with its objective's gradient and Hessian in every
# node (the full-size assembly the fixed-wall solver replaced) and its
# wall-row mass-matrix entries, plus the undamped final step of
# `_reference_jko_step`, which it may take along the previous iteration's
# undamped system.

def _with_ends(op, first, left, right, last, out=None):
    """[first, op(left, right)..., last] in out, or in a new array."""
    out = np.empty(len(left) + 2) if out is None else out
    op(left, right, out=out[1:-1])
    out[0], out[-1] = first, last
    return out


class _FreeWallObjective(_Objective):
    def full_grad(self, x, pt):
        """The gradient in every node, from x's record."""
        self.energy.value_and_grad(x, pt)  # adds W'(t) to the record
        r, e = pt.r, pt.e
        two = 2 * pt.w1
        ta = r * (two[:-1] + r)
        tb = r * (two[1:] - r)
        g_dx = _with_ends(np.subtract, -ta[0], tb[:-1], ta[1:], tb[-1])
        gx = _with_ends(np.subtract, -g_dx[0], g_dx[:-1], g_dx[1:], g_dx[-1])
        two = 2 * e
        right = self.c * (two[:-1] + e[1:])
        left = self.c * (two[1:] + e[:-1])
        gq = _with_ends(np.add, right[0], right[1:], left[:-1], left[-1])
        return gx + gq / (2 * self.tau)

    def full_hessian(self, pt):
        """The Hessian in every node, in (BW, BW) banded storage, from a
        record whose gradient has been evaluated."""
        dx, u, d, s, r, w1 = pt.dx, pt.u, pt.d, pt.s, pt.r, pt.w1
        w2 = (self.energy.f.f2(u) * u + 2 * pt.f1) * u / dx ** 2
        a, b = w1[:-1] + r, w1[1:] - r
        off = -2 * a * b / s
        ha = 2 * (a * a - d * w2[:-1]) / s
        hb = 2 * (b * b + d * w2[1:]) / s
        diag = _with_ends(np.add, ha[0], ha[1:], hb[:-1], hb[-1])
        H = np.zeros((2 * BW + 1, len(dx) + 1))
        _with_ends(np.add, diag[0], diag[1:], diag[:-1], diag[-1], H[BW])
        H[BW, 1:-1] -= 2 * off
        sup = _with_ends(np.add, off[0], off[:-1], off[1:], off[-1],
                         H[BW - 1, 1:])
        sup -= diag
        H[BW + 1, :-1] = sup
        H[BW - 2, 2:] = H[BW + 2, :-2] = -off
        mass = np.array([[self.mass], [4 * self.mass], [self.mass]]).repeat(
            len(dx) + 1, axis=1)
        mass[0, 0] = mass[2, -1] = 0.0
        H[BW - 1:BW + 2] += mass
        H[BW, [0, -1]] -= 2.0 / (6.0 * len(dx) * self.tau)
        return H


def _g_free(g, x, lo, hi):
    gf = g.copy()
    if x[0] <= lo + 1e-14 and gf[0] > 0:
        gf[0] = 0.0
    if x[-1] >= hi - 1e-14 and gf[-1] < 0:
        gf[-1] = 0.0
    return gf


_gbsv, = get_lapack_funcs(("gbsv",), (np.zeros(1),))
_o = np.arange(BW + 1)
_PIN = {0: (np.r_[2 * BW - _o, 2 * BW + _o], np.r_[_o, 0 * _o]),
        -1: (np.r_[2 * BW + _o, 2 * BW - _o], np.r_[-1 - _o, -1 + 0 * _o])}


def _free_wall_direction(ab, H, lam, g, pinned):
    ab[:BW] = 0.0
    ab[BW:] = H
    ab[2 * BW] += lam
    rhs = -g
    for j in pinned:
        ab[_PIN[j]] = 0.0
        ab[2 * BW, j] = 1.0
        rhs[j] = 0.0
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        return None
    _, _, p, info = _gbsv(BW, BW, ab, rhs, overwrite_ab=True,
                          overwrite_b=True)
    return p if info == 0 else None


def _free_wall_jko_step(x_prev, energy, tau, lo, hi, gap, max_iter=60,
                        gtol=1e-11, ftol=1e-15):
    obj = _FreeWallObjective(energy, x_prev, tau)
    x = x_prev.copy()
    f, pt = obj.value(x)
    g = obj.full_grad(x, pt)
    f0 = f
    gref = max(np.linalg.norm(g), 1e-30)
    lam = 0.0
    ab = np.empty((3 * BW + 1, len(x)))
    converged = np.linalg.norm(_g_free(g, x, lo, hi)) <= gtol
    prev = None  # the previous iteration's Hessian and pinned walls
    for _ in range(max_iter if not converged else 0):
        moved = final = False
        if prev is not None:
            p = _free_wall_direction(ab, prev[0], 0.0, g, prev[1])
            final = (p is not None and (slope := p @ g) < -1e-30
                     and -0.5 * slope <= ftol * max(abs(f), 1e-30))
        if not final:
            H = obj.full_hessian(pt)
        for _trial in range(0 if final else 30):
            pinned = []
            for _resolve in range(3):
                p = _free_wall_direction(ab, H, lam, g, pinned)
                if p is None:
                    break
                new = [j for j, out in ((0, x[0] + p[0] < lo - 1e-15),
                                        (-1, x[-1] + p[-1] > hi + 1e-15))
                       if out and j not in pinned]
                if not new:
                    break
                pinned += new
            if p is not None and (slope := p @ g) < -1e-30:
                final = lam == 0 and -0.5 * slope <= ftol * max(abs(f), 1e-30)
                if final:
                    break
                alpha = 1.0
                for _ in range(40):
                    xn = np.clip(x + alpha * p, lo, hi)
                    if np.all(np.diff(xn) > gap):
                        fn, ptn = obj.value(xn)
                        if fn <= f + 1e-4 * alpha * slope or (fn < f and alpha < 1e-6):
                            moved = True
                            break
                    alpha *= 0.5
                if moved:
                    break
            lam = 1e-3 * np.abs(H[BW]).max() if lam == 0 else 10 * lam
        if final:
            xn = np.clip(x + p, lo, hi)
            if (np.all(np.diff(xn) > gap)
                    and obj.value(xn)[0] <= f0):
                x, f = xn, obj.value(xn)[0]
            converged = True
            break
        if not moved:
            break
        prev = (H, pinned) if lam == 0 else None
        df = f - fn
        x, f, pt = xn, fn, ptn
        g = obj.full_grad(x, pt)
        lam *= 0.1
        if (np.linalg.norm(_g_free(g, x, lo, hi)) < gtol * gref
                or df < ftol * max(abs(f), 1e-30)):
            converged = True
            break
    if not converged:
        ulp = np.spacing(max(abs(lo), abs(hi)))
        row = np.abs(obj.full_hessian(pt)).sum(axis=0)
        converged = bool(np.all(np.abs(_g_free(g, x, lo, hi)) <= ulp * row))
    return x, f, converged


@pytest.mark.parametrize("tau", [1e-5, 1e-4])
@pytest.mark.parametrize("k", [16, 64, 1024])
@pytest.mark.parametrize("f", MOBILITIES, ids=lambda f: f.name)
def test_even_mode_steps_match_free_wall_solver(f, k, tau):
    e = MobilityMapEnergy(f)
    x = map_from_density(GridDensity.cosine(UNIT, k, eps=0.5, k=2), k)
    for _ in range(2):
        out = jko_step(x, e, tau, UNIT.gap, e.value(x))
        ref = _free_wall_jko_step(x, e, tau, 0.0, 1.0, UNIT.gap)
        assert np.array_equal(out[0], ref[0])
        assert (out[1], out[3]) == ref[1:]
        x = out[0]


class _NanHessian(MobilityMapEnergy):
    """A NaN at one entry of the interior band block."""

    def __init__(self, entry):
        super().__init__(MobilitySpec.identity())
        self.entry = entry

    def hessian(self, pt, c):
        H = super().hessian(pt, c)
        H[self.entry] = np.nan
        return H


class _SingularHessian(MobilityMapEnergy):
    """Cancels the transport term's mass matrix: the Newton system is 0."""

    def __init__(self):
        super().__init__(MobilitySpec.identity())

    def hessian(self, pt, c):
        return np.zeros((2 * BW + 1, len(pt.dx) - 1))


@pytest.mark.parametrize("energy, factorizations", [
    (_NanHessian((BW, 4)), 0), (_NanHessian((BW - 1, 0)), 0),
    (_SingularHessian(), 1)],
    ids=["nan_diagonal", "nan_unused_corner", "singular"])
def test_unsolvable_systems_match_reference(monkeypatch, energy,
                                            factorizations):
    # scipy's solve_banded refuses a non-finite band (the unused corners of
    # the interior block included) and a singular system; either means no
    # Newton step.  A non-finite band is never factored, and a singular
    # system with a zero diagonal only once: no Levenberg damping can grow
    # from lambda = 1e-3 max|diag| = 0
    calls = []
    factor = jko._factor
    monkeypatch.setattr(jko, "_factor", lambda *a: (
        calls.append(1) or factor(*a)))
    x0 = map_from_density(GridDensity.cosine(UNIT, 64, eps=0.5, k=2), 64)
    x, _, _, converged = _same_step(x0, energy, 1e-4)
    assert np.array_equal(x, x0)
    assert not converged
    assert len(calls) == factorizations
