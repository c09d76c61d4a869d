import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.optimize import minimize

from gradflow1d import (ConfigurationError, GridDensity, Interval, JkoConfig,
                        MobilityMapEnergy, MobilitySpec, ThinFilmMapEnergy,
                        TransportMap, boltzmann_entropy, check_energy_monotone,
                        check_holder_continuity, check_total_square_distance,
                        density_from_map, jko_step, map_from_density,
                        refine_study, run, wasserstein2)
from gradflow1d import jko
from gradflow1d.jko import BW, _Objective
from gradflow1d.transport import w2sq_between_maps

UNIT = Interval(0.0, 1.0)
MOBILITIES = [MobilitySpec.identity(), MobilitySpec.sqrt_mobility(),
              MobilitySpec.power_mobility(1.0, 0.7)]


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
    eps = 1e-7
    for i in [0, 5, 20, 39]:
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        fd = (e.value_and_grad(xp)[0] - e.value_and_grad(xm)[0]) / (2 * eps)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


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
    # the interior rows: the fixed walls' own rows are never read
    ref = _fd_hessian(obj, x, 1e-5 * np.diff(x).min())[1:-1]
    assert np.abs(dense[1:-1] - ref).max() <= 1e-6 * np.abs(ref).max()


# --- single steps -----------------------------------------------------------

def test_uniform_is_fixed_point():
    x0 = np.linspace(0, 1, 65)
    xn, fval, conv = jko_step(x0, ThinFilmMapEnergy(), 1e-4, 1e-9)
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
    xn, fval, _ = jko_step(x0, e, tau, 1e-9)

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
    assert jko_step(x, e, 1e-4, 1e-9, max_iter=0)[2]
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    x1 = map_from_density(u0, 256).positions
    assert not jko_step(x1, e, 1e-4, 1e-9, max_iter=0)[2]


def test_step_on_odd_mode_data():
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=3)
    x0 = map_from_density(u0, 256).positions
    e = ThinFilmMapEnergy()
    tau = 1e-5
    f0 = _Objective(e, x0, tau)(x0)[0]
    xn, fval, conv = jko_step(x0, e, tau, 1e-9)
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


# --- batched resampling -----------------------------------------------------

def assert_states_are_pushforwards(traj, u0):
    # run resamples in blocks after stepping; each state and entropy must be
    # what resampling its map alone gives
    assert traj.states[0] is u0
    assert len(traj.states) == len(traj.maps) == traj.n_steps + 1
    single = [u0] + [density_from_map(x, u0.m) for x in traj.maps[1:]]
    for u, ref in zip(traj.states, single):
        assert np.array_equal(u.values, ref.values)
    assert np.array_equal(traj.entropies,
                          [boltzmann_entropy(u) for u in single])


@pytest.mark.parametrize("u0", [GridDensity.cosine(UNIT, 64, eps=0.9, k=1),
                                GridDensity.cosine(UNIT, 64, eps=0.5, k=3),
                                GridDensity.bump(UNIT, 64),
                                GridDensity.cosine(UNIT, 48, eps=0.5, k=3)],
                         ids=["k1", "k3", "bump", "k3-m48"])
@pytest.mark.parametrize("n_steps", [0, 1, 6])
def test_run_states_match_one_map_at_a_time(u0, n_steps):
    traj = run(u0, ThinFilmMapEnergy(), JkoConfig(tau=1e-4, n_steps=n_steps,
                                                  k=96))
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

    def spy(maps, m):
        sizes.append(len(maps))
        return batch(maps, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jko, "densities_from_maps", spy)
        traj = run(u0, MobilityMapEnergy(MobilitySpec.sqrt_mobility()),
                   JkoConfig(tau=1e-4, n_steps=n_steps, k=32))
    assert sizes == [min(n_steps, rows)] + [1] * (extra == 1)
    assert_states_are_pushforwards(traj, u0)


def test_run_resamples_corrupted_steps():
    u0 = GridDensity.cosine(UNIT, 64, eps=0.5, k=1)
    traj = run(u0, ThinFilmMapEnergy(), JkoConfig(tau=1e-4, n_steps=4, k=64),
               corrupt_steps=(1, 3))
    assert_states_are_pushforwards(traj, u0)
    assert np.array_equal(traj.states[3].values, traj.states[2].values)


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


# --- parity of the inner loop with the plain damped Newton loop -------------

def _reference_jko_step(x_prev, energy, tau, gap, max_iter=60, gtol=1e-11,
                        ftol=1e-15):
    """The inner loop in its plain form: the end nodes stay on the walls,
    every line-search trial evaluates value and gradient, each Hessian
    recomputes its interface arrays, and the interior block goes to scipy's
    solve_banded.  jko_step must return bitwise what this returns."""
    obj = _Objective(energy, x_prev, tau)
    x = x_prev.copy()
    f, g = obj(x)
    g = g[1:-1]
    gref = max(np.linalg.norm(g), 1e-30)
    lam = 0.0
    converged = np.linalg.norm(g) <= gtol
    for _ in range(max_iter if not converged else 0):
        H = obj.hessian_banded(x)[:, 1:-1]
        moved = False
        for _trial in range(30):
            Hd = H.copy()
            Hd[BW] += lam
            try:
                p = solve_banded((BW, BW), Hd, -g)
            except (ValueError, np.linalg.LinAlgError):
                p = None
            if p is not None and p @ g < -1e-30:
                alpha = 1.0
                for _ in range(40):
                    xn = np.concatenate(([x[0]], x[1:-1] + alpha * p, [x[-1]]))
                    if np.all(np.diff(xn) > gap):
                        fn, gn = obj(xn)
                        if fn <= f + 1e-4 * alpha * (p @ g) or (fn < f and alpha < 1e-6):
                            moved = True
                            break
                    alpha *= 0.5
                if moved:
                    break
            lam = 1e-3 * np.abs(H[BW]).max() if lam == 0 else 10 * lam
        if not moved:
            break
        df = f - fn
        x, f, g = xn, fn, gn[1:-1]
        lam *= 0.1
        if np.linalg.norm(g) < gtol * gref or df < ftol * max(abs(f), 1e-30):
            converged = True
            break
    if not converged:
        ulp = np.spacing(max(abs(x[0]), abs(x[-1])))
        row = np.abs(obj.hessian_banded(x)[:, 1:-1]).sum(axis=0)
        converged = bool(np.all(np.abs(g) <= ulp * row))
    return x, f, converged


def _same_step(x, energy, tau, max_iter=60):
    ref = _reference_jko_step(x, energy, tau, UNIT.gap, max_iter)
    out = jko_step(x, energy, tau, UNIT.gap, max_iter)
    assert np.array_equal(out[0], ref[0])
    assert out[1] == ref[1]
    assert out[2] == ref[2]
    return out


@pytest.mark.parametrize("f", MOBILITIES, ids=lambda f: f.name)
def test_value_matches_value_and_grad(f):
    e = MobilityMapEnergy(f)
    rng = np.random.default_rng(3)
    for k in (16, 257):
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, k))])
        x /= x[-1]
        obj = _Objective(e, x + 0.01 * rng.uniform(-1, 1, k + 1) / k, 1e-4)
        assert e.value(x) == e.value_and_grad(x)[0]
        assert obj.value(x) == obj(x)[0]
        iface = e._interfaces(x)
        assert np.array_equal(obj(x, iface)[1], obj(x)[1])
        assert np.array_equal(obj.hessian_banded(x, iface),
                              obj.hessian_banded(x))


@pytest.mark.parametrize("tau", [1e-5, 1e-4, 1e-2])
@pytest.mark.parametrize("k", [16, 64, 1024])
@pytest.mark.parametrize("f", MOBILITIES, ids=lambda f: f.name)
def test_step_matches_reference(f, k, tau):
    # two steps from even (k=2) and odd (k=3) cosine data
    e = MobilityMapEnergy(f)
    for mode in (2, 3):
        x = map_from_density(GridDensity.cosine(UNIT, k, eps=0.5, k=mode),
                             k).positions
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
    for xmap in traj.maps:
        assert xmap.positions[0] == dom.lo
        assert xmap.positions[-1] == dom.hi
    assert np.abs(traj.maps[-1].positions - traj.maps[0].positions).max() > 1e-3


def test_stationary_exit_matches_reference():
    # the acceptance fixture's step 187 starts at the rounding floor and
    # takes 16 noise-sized Newton iterations; on a budget of 8 it spends the
    # budget and is converged only by the working-precision stationarity
    # test
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    traj = run(u0, ThinFilmMapEnergy(), JkoConfig(tau=1e-4, n_steps=186,
                                                  k=256))
    x = traj.maps[-1].positions
    assert _same_step(x, ThinFilmMapEnergy(), 1e-4, max_iter=8)[2]
    e = ThinFilmMapEnergy()
    grads = []
    value_and_grad = e.value_and_grad
    e.value_and_grad = lambda *a: grads.append(1) or value_and_grad(*a)
    jko_step(x, e, 1e-4, UNIT.gap, max_iter=8)
    assert len(grads) == 9  # the start and all 8 accepted iterations


# --- parity with the free-wall solver where its walls never moved ----------
# The solver this one replaced let a wall node leave its wall through an
# endpoint active set.  On even-mode data at small steps its walls stayed
# put, so holding them fixed must give bitwise its results there.  Below is
# that solver verbatim, with its objective's wall-row mass-matrix entries.

class _FreeWallObjective(_Objective):
    def hessian_banded(self, x, iface=None):
        H = super().hessian_banded(x, iface)
        H[BW, [0, -1]] -= 2.0 / (6.0 * (len(x) - 1) * self.tau)
        return H


def _g_free(g, x, lo, hi):
    gf = g.copy()
    if x[0] <= lo + 1e-14 and gf[0] > 0:
        gf[0] = 0.0
    if x[-1] >= hi - 1e-14 and gf[-1] < 0:
        gf[-1] = 0.0
    return gf


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
    _, _, p, info = jko._gbsv(BW, BW, ab, rhs, overwrite_ab=True,
                              overwrite_b=True)
    return p if info == 0 else None


def _free_wall_jko_step(x_prev, energy, tau, lo, hi, gap, max_iter=60,
                        gtol=1e-11, ftol=1e-15):
    obj = _FreeWallObjective(energy, x_prev, tau)
    x = x_prev.copy()
    iface = energy._interfaces(x)
    f, g = obj(x, iface)
    gref = max(np.linalg.norm(g), 1e-30)
    lam = 0.0
    ab = np.empty((3 * BW + 1, len(x)))
    converged = np.linalg.norm(_g_free(g, x, lo, hi)) <= gtol
    for _ in range(max_iter if not converged else 0):
        H = obj.hessian_banded(x, iface)
        moved = False
        for _trial in range(30):
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
                alpha = 1.0
                for _ in range(40):
                    xn = np.clip(x + alpha * p, lo, hi)
                    if np.all(np.diff(xn) > gap):
                        fn = obj.value(xn)
                        if fn <= f + 1e-4 * alpha * slope or (fn < f and alpha < 1e-6):
                            moved = True
                            break
                    alpha *= 0.5
                if moved:
                    break
            lam = 1e-3 * np.abs(H[BW]).max() if lam == 0 else 10 * lam
        if not moved:
            break
        df = f - fn
        iface = energy._interfaces(xn)
        x, f, g = xn, fn, obj(xn, iface)[1]
        lam *= 0.1
        if (np.linalg.norm(_g_free(g, x, lo, hi)) < gtol * gref
                or df < ftol * max(abs(f), 1e-30)):
            converged = True
            break
    if not converged:
        ulp = np.spacing(max(abs(lo), abs(hi)))
        row = np.abs(obj.hessian_banded(x, iface)).sum(axis=0)
        converged = bool(np.all(np.abs(_g_free(g, x, lo, hi)) <= ulp * row))
    return x, f, converged


@pytest.mark.parametrize("tau", [1e-5, 1e-4])
@pytest.mark.parametrize("k", [16, 64, 1024])
@pytest.mark.parametrize("f", MOBILITIES, ids=lambda f: f.name)
def test_even_mode_steps_match_free_wall_solver(f, k, tau):
    e = MobilityMapEnergy(f)
    x = map_from_density(GridDensity.cosine(UNIT, k, eps=0.5, k=2),
                         k).positions
    for _ in range(2):
        out = jko_step(x, e, tau, UNIT.gap)
        ref = _free_wall_jko_step(x, e, tau, 0.0, 1.0, UNIT.gap)
        assert np.array_equal(out[0], ref[0])
        assert out[1:] == ref[1:]
        x = out[0]


class _NanHessian(ThinFilmMapEnergy):
    def __init__(self, entry):
        super().__init__()
        self.entry = entry

    def hessian_banded(self, x, iface=None):
        H = super().hessian_banded(x, iface)
        H[self.entry] = np.nan
        return H


class _SingularHessian(ThinFilmMapEnergy):
    """Cancels the transport term's mass matrix: the Newton system is 0."""

    def __init__(self, tau):
        super().__init__()
        self.tau = tau

    def hessian_banded(self, x, iface=None):
        c = 1.0 / (6.0 * (len(x) - 1) * self.tau)
        H = np.zeros((2 * BW + 1, len(x)))
        H[BW] = -4 * c
        H[BW - 1, 1:] = H[BW + 1, :-1] = -c
        return H


@pytest.mark.parametrize("energy", [_NanHessian((BW, 5)),
                                    _NanHessian((BW - 1, 1)),
                                    _SingularHessian(1e-4)],
                         ids=["nan_diagonal", "nan_unused_corner",
                              "singular"])
def test_unsolvable_systems_match_reference(energy):
    # scipy's solve_banded refuses a non-finite band (the unused corners of
    # the interior block included) and a singular system; either means no
    # Newton step
    x0 = map_from_density(GridDensity.cosine(UNIT, 64, eps=0.5, k=2),
                          64).positions
    x, _, converged = _same_step(x0, energy, 1e-4)
    assert np.array_equal(x, x0)
    assert not converged
