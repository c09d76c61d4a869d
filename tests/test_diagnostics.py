from dataclasses import replace

import numpy as np
import pytest

from gradflow1d import (GridDensity, Interval, JkoConfig, JkoTrajectory,
                        MobilityMapEnergy, MobilitySpec, boltzmann_entropy,
                        check_discrete_weak_f, check_entropy_dissipation_f,
                        check_total_square_distance, densities_from_maps,
                        dissipation_constants, run)
from gradflow1d.cli import _certificates, load_config
from gradflow1d.diagnostics import DISTANCE_MARGIN, WEAK_MODES, weak_terms
from gradflow1d.jko import per_row
from gradflow1d.transport import w2sq_between_maps

UNIT = Interval(0.0, 1.0)
IDENTITY = MobilitySpec.identity()  # thin film in the mobility class


@pytest.fixture(scope="module")
def thin_traj():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=20, k=128)
    return run(u0, MobilityMapEnergy(IDENTITY), cfg)


@pytest.fixture(scope="module")
def mob_traj():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=20, k=128)
    return run(u0, MobilityMapEnergy(MobilitySpec.sqrt_mobility()), cfg)


# --- Hoelder continuity -----------------------------------------------------

def holder_double_loop(traj):
    """Reference: W2 of every stamp pair i < j, one distance at a time."""
    pos = traj.positions
    dist = {}
    for i in range(traj.n_steps + 1):
        for j in range(i + 1, traj.n_steps + 1):
            d = pos[i] - pos[j]
            dm = 1.0 / (len(d) - 1)
            w2sq = (dm / 3.0) * np.sum(d[:-1] ** 2 + d[:-1] * d[1:] + d[1:] ** 2)
            dist[i, j] = float(np.sqrt(w2sq))
    return dist


@pytest.fixture(scope="module")
def default_traj():
    """30 steps of the default config (thin film, cosine eps=0.5 k=2,
    tau = 1e-4) at m = k = 64."""
    u0 = GridDensity.cosine(UNIT, 64, eps=0.5, k=2)
    return run(u0, MobilityMapEnergy(IDENTITY),
               JkoConfig(tau=1e-4, n_steps=30, k=64))


def test_path_certificates_fail_a_jump_to_the_last_map(default_traj):
    # negative control: map 1 replaced by the run's last map, so the path
    # jumps almost the whole way at its first step and back at its second
    pos = default_traj.positions.copy()
    pos[1] = pos[-1]
    bad = replace(default_traj, positions=pos, step_distances=np.sqrt(
        w2sq_between_maps(pos[1:], pos[:-1])))
    assert check_total_square_distance(default_traj).passed
    # measured: 0.00496 against 0.000493
    total = check_total_square_distance(bad)
    assert total.lhs > 5 * total.rhs


def rounding_factor(traj):
    """1 + 2 (K + 20) eps: covers the rounding of the computed distances."""
    return 1.0 + 2.0 * (traj.positions.shape[-1] - 1 + 20) * np.finfo(float).eps


def assert_below_path_bound(traj):
    """Every stamp pair obeys W2(u_i, u_j) <= sqrt(lag S_ij), S_ij the sum of
    the squared step distances between them (triangle inequality and
    Cauchy-Schwarz); returns the double-loop distances."""
    dist = holder_double_loop(traj)
    sq = traj.step_distances ** 2
    rel = rounding_factor(traj)
    for (i, j), d in dist.items():
        assert d <= np.sqrt((j - i) * np.sum(sq[i:j])) * rel, (i, j)
    return dist


def assert_holder_at_the_distance_margin(traj):
    """With Phi(u_0) as small as total_square_distance lets it be, every
    stamp pair still obeys the Hoelder bound sqrt(2 Phi(u_0) (lag + 1) tau)."""
    s = float(np.sum(traj.step_distances ** 2))
    e0 = s / (2.0 * traj.tau * DISTANCE_MARGIN) * (1.0 + 1e-12)
    edge = replace(traj, energies=np.full_like(traj.energies, e0))
    assert check_total_square_distance(edge).passed
    for (i, j), d in holder_double_loop(edge).items():
        assert d < np.sqrt(2.0 * e0 * (j - i + 1) * edge.tau), (i, j)


def map_traj(positions, energies, tau=1e-4, m=32):
    """The trajectory of the given map rows on the unit interval, with every
    other field derived from those rows."""
    pos = np.asarray(positions, dtype=float)
    values = densities_from_maps(UNIT, pos, m)
    grid = GridDensity(UNIT, values[0])
    n = len(pos) - 1
    return JkoTrajectory(
        tau=tau, times=np.arange(n + 1) * tau, grid=grid, positions=pos,
        values=values, energies=np.asarray(energies, dtype=float),
        step_distances=np.sqrt(w2sq_between_maps(pos[1:], pos[:-1])),
        entropies=boltzmann_entropy(grid, values),
        converged=np.ones(n, dtype=bool))


def random_map(rng, k):
    """Nodes 0 = x_0 < ... < x_k = 1 with cell widths within a factor 3."""
    x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, k))))
    return x / x[-1]


@pytest.mark.parametrize("seed", range(50))
def test_holder_straight_path_then_jump_back(seed):
    # u_k = A + (k/L)(B - A), k = 0..L, then A again: (0, L) and (L, L + 1)
    # tie bitwise, and on the straight part the triangle inequality and
    # Cauchy-Schwarz are equalities, so (0, L) sits on the path bound up to
    # rounding, which the rounding factor must cover
    rng = np.random.default_rng(seed)
    L, k = 8, 64
    a, b = random_map(rng, k), random_map(rng, k)
    pos = [a + (i / L) * (b - a) for i in range(L + 1)] + [a]
    traj = map_traj(pos, np.zeros(L + 2))
    assert w2sq_between_maps(pos[0], pos[L]) == \
        w2sq_between_maps(pos[L], pos[L + 1])
    dist = assert_below_path_bound(traj)
    tight = np.sqrt(L * np.sum(traj.step_distances[:L] ** 2))
    assert dist[0, L] >= tight / rounding_factor(traj)
    assert_holder_at_the_distance_margin(traj)


@pytest.mark.parametrize("seed", range(20))
def test_holder_random_paths_small_bound(seed):
    # Phi(u_0) at the smallest value total_square_distance passes: the
    # Hoelder bound still holds for every pair, at every lag; even seeds
    # draw independent maps, odd seeds random-walk between them
    rng = np.random.default_rng(seed)
    n, k = 24, 32
    pos = [random_map(rng, k)]
    for _ in range(n):
        step = rng.uniform(0.0, 0.6) if seed % 2 else 1.0
        pos.append((1 - step) * pos[-1] + step * random_map(rng, k))
    traj = map_traj(pos, np.full(n + 1, 1e-4 * rng.uniform()), tau=1e-3)
    # at the drawn Phi(u_0) both estimates fail
    assert not check_total_square_distance(traj).passed
    assert_below_path_bound(traj)
    assert_holder_at_the_distance_margin(traj)


HARD_DATA = {
    "cosine_eps0.9_k1-identity": (dict(eps=0.9, k=1), IDENTITY),
    "cosine_eps0.9_k1-sqrt": (dict(eps=0.9, k=1), MobilitySpec.sqrt_mobility()),
    "bump-power0.7": (None, MobilitySpec.power_mobility(1.0, 0.7)),
}


@pytest.mark.parametrize("corrupt", [(), (5,)], ids=["genuine", "corrupted"])
@pytest.mark.parametrize("tau", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("name", HARD_DATA)
def test_holder_hard_data_matches_double_loop(name, tau, corrupt,
                                              copied_steps):
    # Hoelder continuity, W2(u_i, u_j) <= sqrt(2 Phi(u_0) (lag + 1) tau)
    # with lag = j - i, follows from total_square_distance: the triangle
    # inequality and Cauchy-Schwarz give W2(u_i, u_j) <= sqrt(lag S), with
    # S = sum_k d_k^2 <= 1.001 * 2 tau Phi(u_0).  2 (K + 20) eps covers the
    # rounding of the computed distances.  tau = 1e-2 runs to equilibrium.
    cosine, f = HARD_DATA[name]
    u0 = (GridDensity.bump(UNIT, 64) if cosine is None
          else GridDensity.cosine(UNIT, 64, **cosine))
    with copied_steps(*corrupt):
        traj = run(u0, MobilityMapEnergy(f),
                   JkoConfig(tau=tau, n_steps=30, k=64))
    assert check_total_square_distance(traj).passed
    s = float(np.sum(traj.step_distances ** 2))
    rel = rounding_factor(traj)
    e0 = float(traj.energies[0])
    for (i, j), dist in holder_double_loop(traj).items():
        lag = j - i
        assert dist <= np.sqrt(lag * s) * rel
        assert dist < np.sqrt(2.0 * e0 * (lag + 1) * traj.tau)


# --- per-step dissipation certificates -------------------------------------

def thin_film_entropy_dissipation(traj):
    _, delta = dissipation_constants(IDENTITY, 1)
    return check_entropy_dissipation_f(traj, IDENTITY, delta)


def test_entropy_dissipation_thin_film(thin_traj):
    reports = thin_film_entropy_dissipation(thin_traj)
    assert len(reports) == thin_traj.n_steps
    assert all(r.passed for r in reports)


def test_entropy_dissipation_mobility(mob_traj):
    _, delta = dissipation_constants(MobilitySpec.sqrt_mobility(), 1)
    reports = check_entropy_dissipation_f(mob_traj,
                                          MobilitySpec.sqrt_mobility(), delta)
    assert all(r.passed for r in reports)


def test_entropy_dissipation_fails_on_corruption(copied_steps):
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=6, k=128)
    with copied_steps(3):
        traj = run(u0, MobilityMapEnergy(IDENTITY), cfg)
    reports = thin_film_entropy_dissipation(traj)
    assert not reports[2].passed  # frozen step: no entropy drop, full lhs


# --- discrete weak formulation in the map nodes -----------------------------

def assert_within_bound(traj, f):
    """Every step and mode is within its bound plus rounding, and the report
    is the entry nearest to failing; returns the report."""
    rep = check_discrete_weak_f(traj, f)
    res, bound, rounding = weak_terms(traj, f)
    assert res.shape == (len(WEAK_MODES), traj.n_steps)
    assert np.all(np.abs(res) <= bound + rounding)
    assert rep.passed and rep.lhs <= rep.rhs + rep.tolerance
    assert rep.context["ratio"] == np.max(np.abs(res) / (bound + rounding))
    return rep


def test_weak_form_stationary_zero():
    # the uniform datum's maps are stationary: every residual is rounding,
    # within the rounding term alone
    u0 = GridDensity.uniform(UNIT, 64)
    cfg = JkoConfig(tau=1e-4, n_steps=10, k=64)
    traj = run(u0, MobilityMapEnergy(IDENTITY), cfg)
    res, bound, rounding = weak_terms(traj, IDENTITY)
    assert np.all(np.abs(res) <= rounding) and np.abs(res).max() < 1e-12
    assert np.all(bound < 1e-20)
    assert_within_bound(traj, IDENTITY)


def test_weak_form_thin_film(thin_traj):
    assert_within_bound(thin_traj, IDENTITY)


def test_weak_form_mobility(mob_traj):
    f = MobilitySpec.sqrt_mobility()
    rep = assert_within_bound(mob_traj, f)
    # the report's bound from its definition, at its step and mode
    n, om = rep.step, rep.context["mode"] * np.pi
    pos = mob_traj.positions
    w2 = np.sqrt(w2sq_between_maps(pos[n], pos[n - 1]))
    dx = np.diff(pos[n]).max()
    assert rep.rhs == pytest.approx(0.5 * om ** 2 * w2 ** 2
                                    + om ** 3 / 8 * dx ** 2 * w2, rel=1e-12)
    assert 0 < rep.tolerance < 1e-3 * rep.rhs


@pytest.mark.parametrize("tau", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("name", HARD_DATA)
def test_weak_form_passes_hard_data(name, tau):
    cosine, f = HARD_DATA[name]
    u0 = (GridDensity.bump(UNIT, 64) if cosine is None
          else GridDensity.cosine(UNIT, 64, **cosine))
    assert_within_bound(run(u0, MobilityMapEnergy(f),
                            JkoConfig(tau=tau, n_steps=30, k=64)), f)


@pytest.mark.parametrize("f, k, tau", [
    (IDENTITY, 3, 1e-6), (IDENTITY, 3, 1e-2),
    (MobilitySpec.power_mobility(1.0, 0.7), 2, 1e-2)],
    ids=["identity-k3-1e-06", "identity-k3-0.01", "power0.7-k2-0.01"])
def test_weak_form_passes_near_equilibrium(f, k, tau):
    # at tau = 1e-2 the runs settle within a few steps and the residuals
    # are rounding of the energy gradient; without its term in the rounding
    # bound, the power0.7 run failed at step 15 with ratio 1.44 (measured)
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=k)
    assert_within_bound(run(u0, MobilityMapEnergy(f),
                            JkoConfig(tau=tau, n_steps=50, k=256)), f)


def test_weak_form_reads_no_grid_state(mob_traj):
    # the check reads the map nodes, the step distances, tau and the
    # domain: the grid states, energies and entropies may be anything
    f = MobilitySpec.sqrt_mobility()
    nan = replace(mob_traj, values=mob_traj.values.copy(),
                  energies=np.full_like(mob_traj.energies, np.nan),
                  entropies=np.full_like(mob_traj.entropies, np.nan))
    nan.values[1:] = np.nan
    a, b = check_discrete_weak_f(nan, f), check_discrete_weak_f(mob_traj, f)
    assert a.row() == b.row() and a.context == b.context
    for x, y in zip(weak_terms(nan, f), weak_terms(mob_traj, f)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("tau", [1e-4, 1e-5])
def test_weak_form_fails_a_copied_step(copied_steps, tau):
    # step 25 of the default config copied: its residual is tau <grad Phi,
    # xi> while its bound is rounding alone (measured 2.2e6 and 2.9e7 times
    # bound plus rounding); the genuine steps around it pass
    cfg = load_config({})
    with copied_steps(25):
        traj = run(cfg.u0, MobilityMapEnergy(cfg.mobility),
                   JkoConfig(tau=tau, n_steps=cfg.n_steps, k=cfg.k))
    rep = check_discrete_weak_f(traj, cfg.mobility)
    assert not rep.passed and rep.step == 25 and rep.context["ratio"] > 1e5
    res, bound, rounding = weak_terms(traj, cfg.mobility)
    failed = np.nonzero(np.abs(res) > bound + rounding)[1] + 1
    assert sorted(set(failed)) == [25]


# --- a rough state -----------------------------------------------------------

POWER_02 = MobilitySpec.power_mobility(1.0, 0.2)


@pytest.fixture(scope="module")
def concave_traj():
    # a large-amplitude datum under the concave mobility f(z) = z^0.2
    u0 = GridDensity.cosine(UNIT, 64, eps=0.9, k=1)
    return run(u0, MobilityMapEnergy(POWER_02),
               JkoConfig(tau=1e-3, n_steps=50, k=64))


def test_entropy_dissipation_fails_a_rough_state(concave_traj):
    # negative control: one grid state replaced by a high-frequency mode,
    # with the entropies recomputed as `run` computes them
    traj = replace(concave_traj, values=concave_traj.values.copy())
    traj.values[25] = GridDensity.cosine(UNIT, 64, eps=0.9, k=20).values
    traj.entropies = per_row(lambda v: boltzmann_entropy(traj.grid, v),
                             traj.values)
    delta = dissipation_constants(POWER_02, 1)[1]
    assert all(rep.passed for rep in check_entropy_dissipation_f(
        concave_traj, POWER_02, delta))
    reports = check_entropy_dissipation_f(traj, POWER_02, delta)
    assert [rep.step for rep in reports if not rep.passed] == [25]


# --- trajectory corruptions of the default run ------------------------------

@pytest.fixture(scope="module")
def default_run():
    """The default config and its 50-step run (thin film, cosine eps=0.5
    k=2, m = k = 256, tau = 1e-4)."""
    cfg = load_config({})
    return cfg, run(cfg.u0, MobilityMapEnergy(cfg.mobility),
                    JkoConfig(tau=cfg.tau, n_steps=cfg.n_steps, k=cfg.k))


def with_maps(traj, f, pos):
    """traj with map rows pos, and its energies, step distances, grid states
    (row 0 stays the datum) and entropies rebuilt from them."""
    values = traj.values.copy()
    values[1:] = densities_from_maps(traj.grid.domain, pos[1:], traj.grid.m)
    energy = MobilityMapEnergy(f)
    return replace(
        traj, positions=pos, values=values,
        energies=np.array([energy.value(x) for x in pos]),
        step_distances=np.sqrt(w2sq_between_maps(pos[1:], pos[:-1])),
        entropies=boltzmann_entropy(traj.grid, values))


def skip_ahead(pos):
    pos[25] = pos[30].copy()


def swap(pos):
    pos[[25, 26]] = pos[[26, 25]]


def high_mode(pos):
    j = np.arange(pos.shape[1])
    pos[25] += (0.2 * np.diff(pos[25]).min()
                * np.sin(20 * np.pi * j / (pos.shape[1] - 1)))


# the steps at which discrete_weak fails, measured: among those that read a
# corrupted row (25 and 26, and 27 after a swap)
WEAK_FAILS = {None: [], "skip_ahead": [25, 26], "swap": [25, 26, 27],
              "high_mode": [25]}


@pytest.mark.parametrize("corrupt, step", [
    (None, None), (skip_ahead, 26), (swap, 26), (high_mode, 25)],
    ids=["clean", "skip_ahead", "swap", "high_mode"])
def test_dissipation_certificates_fail_where_a_corruption_reaches(
        default_run, corrupt, step):
    # row 25 replaced by row 30, rows 25 and 26 swapped, or 0.2 min dX
    # sin(20 pi j/K) added to node j of row 25: each makes one step raise
    # the energy and the entropy, which energy_monotone and
    # entropy_dissipation fail there and nowhere else.  The clean rebuild
    # is the run itself
    cfg, traj = default_run
    pos = traj.positions.copy()
    if corrupt is not None:
        corrupt(pos)
    bad = with_maps(traj, cfg.mobility, pos)
    if corrupt is None:
        assert np.array_equal(bad.energies, traj.energies)
        assert np.array_equal(bad.entropies, traj.entropies)
    reports = _certificates(cfg, bad)
    for name in ("energy_monotone", "entropy_dissipation"):
        failed = [r.step for r in reports if r.name == name and not r.passed]
        assert failed == ([] if step is None else [step]), name
    assert len(reports) == 2 * cfg.n_steps + 2
    # the weak form fails at the steps that read a corrupted row, and its
    # report names one of them
    (weak,) = [r for r in reports if r.name == "discrete_weak"]
    res, bound, rounding = weak_terms(bad, cfg.mobility)
    failed = sorted(set(np.nonzero(np.abs(res) > bound + rounding)[1] + 1))
    assert failed == WEAK_FAILS[corrupt and corrupt.__name__]
    assert weak.passed == (step is None)
    assert weak.step in failed or step is None


# --- algebraic lemmas -------------------------------------------------------

def test_traceless_zero_matrix(lemma_value):
    # A = 0 leaves (d - 1)/d |v|^4: 2/3 * 5.25^2 at d = 3
    value = lemma_value(np.zeros((3, 3)), np.array([1.0, 2.0, 0.5]))
    assert value == pytest.approx(2 / 3 * 5.25 ** 2, rel=1e-15)


def test_traceless_equality_case(lemma_value):
    # d = 2, A = diag(-1/2, 1/2), v = e1: value = 1/2 - 1 + 1/2 = 0
    # (the batched form: both rows are the equality case)
    A = np.stack([np.diag([-0.5, 0.5])] * 2)
    v = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert np.all(np.abs(lemma_value(A, v)) < 1e-14)
