from dataclasses import replace

import numpy as np
import pytest

from gradflow1d import (ConfigurationError, GridDensity, Interval, JkoConfig,
                        JkoTrajectory, MobilityMapEnergy, MobilitySpec,
                        TemporalWeight, TestFunction, boltzmann_entropy,
                        check_discrete_weak_f, check_entropy_dissipation_f,
                        check_holder_continuity, check_total_square_distance,
                        densities_from_maps,
                        dissipation_constants, run)
from gradflow1d import diagnostics, transport
from gradflow1d.lagrangian import nf_density
from gradflow1d.transport import consecutive_distances, w2sq_between_maps

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
    """Reference: every stamp pair in (i, j) order, one distance at a time."""
    e0 = traj.energies[0]
    worst, worst_pair = -np.inf, (0, 0)
    pos = traj.positions
    for i in range(traj.n_steps + 1):
        for j in range(i + 1, traj.n_steps + 1):
            d = pos[i] - pos[j]
            dm = 1.0 / (len(d) - 1)
            w2sq = (dm / 3.0) * np.sum(d[:-1] ** 2 + d[:-1] * d[1:] + d[1:] ** 2)
            gap = np.sqrt(w2sq) - np.sqrt(2.0 * e0 * ((j - i) * traj.tau
                                                     + traj.tau))
            if gap > worst:
                worst, worst_pair = gap, (i, j)
    return float(worst), worst_pair


@pytest.fixture(scope="module")
def corrupted_traj():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=10, k=128)
    return run(u0, MobilityMapEnergy(IDENTITY), cfg, corrupt_steps=(4, 5))


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


@pytest.fixture(scope="module")
def tied_traj(thin_traj):
    """Maps A, A, B, B with a zero bound: the four A-B pairs tie, the first
    in (i, j) order is (0, 2), and lag 1 finds its tie at i = 1 first."""
    a, b = thin_traj.positions[0], thin_traj.positions[-1]
    return map_traj([a, a, b, b], np.zeros(4), thin_traj.tau, thin_traj.grid.m)


@pytest.mark.parametrize("name", ["thin_traj", "mob_traj", "corrupted_traj",
                                  "tied_traj"])
def test_holder_matches_double_loop(name, request):
    traj = request.getfixturevalue(name)
    rep = check_holder_continuity(traj)
    lhs, pair = holder_double_loop(traj)
    assert np.array_equal(rep.lhs, lhs)  # bitwise
    assert rep.context["worst_pair"] == pair


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
    bad = replace(default_traj, positions=pos,
                  step_distances=consecutive_distances(pos))
    for traj, passed in ((default_traj, True), (bad, False)):
        assert check_total_square_distance(traj).passed is passed
        assert check_holder_continuity(traj).passed is passed
    # measured: 0.00496 against 0.000493, and a Hoelder gap of 0.0241
    total = check_total_square_distance(bad)
    assert total.lhs > 5 * total.rhs
    assert check_holder_continuity(bad).lhs > 0.01


def test_holder_tie_order(tied_traj):
    assert check_holder_continuity(tied_traj).context["worst_pair"] == (0, 2)


def assert_holder_matches_double_loop(traj):
    rep = check_holder_continuity(traj)
    lhs, pair = holder_double_loop(traj)
    assert np.array_equal(rep.lhs, lhs)  # bitwise
    assert rep.context["worst_pair"] == pair
    return rep


def test_holder_blocks_match_double_loop(thin_traj, monkeypatch):
    # lag-1 distances in blocks of 3 rows, the last one short (20 steps)
    monkeypatch.setattr(transport, "DIST_BLOCK", 3 * 129)
    assert_holder_matches_double_loop(thin_traj)


def test_holder_reads_only_the_maps(thin_traj):
    # the check reads positions, energies, tau and n_steps, nothing else
    rng = np.random.default_rng(3)
    n = thin_traj.n_steps
    garbage = replace(thin_traj, step_distances=rng.uniform(-1e3, 1e3, n),
                      times=rng.uniform(size=n + 1),
                      entropies=rng.uniform(size=n + 1),
                      converged=np.zeros(n, dtype=bool))
    rep, ref = (check_holder_continuity(t) for t in (garbage, thin_traj))
    assert np.array_equal(rep.lhs, ref.lhs)
    assert rep.context["worst_pair"] == ref.context["worst_pair"]


@pytest.mark.parametrize("seed", range(50))
def test_holder_straight_path_then_jump_back(seed):
    # u_k = A + (k/L)(B - A), k = 0..L, then A again, with a zero bound:
    # (0, L) and (L, L + 1) tie bitwise, (L, L + 1) is found first (lag 1),
    # and (0, L) sits on the triangle-inequality bound up to rounding, so
    # the screen keeps it only through its floating-point margin
    rng = np.random.default_rng(seed)
    L, k = 8, 64
    a, b = random_map(rng, k), random_map(rng, k)
    pos = [a + (i / L) * (b - a) for i in range(L + 1)] + [a]
    traj = map_traj(pos, np.zeros(L + 2))
    assert w2sq_between_maps(pos[0], pos[L]) == \
        w2sq_between_maps(pos[L], pos[L + 1])
    assert assert_holder_matches_double_loop(traj).context["worst_pair"] \
        == (0, L)


def count_holder_pairs(traj, monkeypatch):
    """The number of map pairs check_holder_continuity passes to
    transport.w2sq_between_maps."""
    pairs = []

    def counted(xa, xb):
        pairs.append(int(np.prod(np.broadcast_shapes(xa.shape[:-1],
                                                     xb.shape[:-1]))))
        return w2sq_between_maps(xa, xb)

    monkeypatch.setattr(transport, "w2sq_between_maps", counted)
    check_holder_continuity(traj)
    monkeypatch.undo()
    return sum(pairs)


@pytest.mark.parametrize("seed", range(20))
def test_holder_random_paths_small_bound(seed, monkeypatch):
    # a small Phi(u_0) lets many pairs beyond lag 1 through the screen;
    # even seeds draw independent maps, odd seeds random-walk between them
    rng = np.random.default_rng(seed)
    n, k = 24, 32
    pos = [random_map(rng, k)]
    for _ in range(n):
        step = rng.uniform(0.0, 0.6) if seed % 2 else 1.0
        pos.append((1 - step) * pos[-1] + step * random_map(rng, k))
    traj = map_traj(pos, np.full(n + 1, 1e-4 * rng.uniform()), tau=1e-3)
    pairs = count_holder_pairs(traj, monkeypatch)
    assert pairs > 2 * n
    assert_holder_matches_double_loop(traj)


HARD_DATA = {
    "cosine_eps0.9_k1-identity": (dict(eps=0.9, k=1), IDENTITY),
    "cosine_eps0.9_k1-sqrt": (dict(eps=0.9, k=1), MobilitySpec.sqrt_mobility()),
    "bump-power0.7": (None, MobilitySpec.power_mobility(1.0, 0.7)),
}


@pytest.mark.parametrize("corrupt", [(), (5,)], ids=["genuine", "corrupted"])
@pytest.mark.parametrize("tau", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("name", HARD_DATA)
def test_holder_hard_data_matches_double_loop(name, tau, corrupt):
    # tau = 1e-2 runs to equilibrium
    cosine, f = HARD_DATA[name]
    u0 = (GridDensity.bump(UNIT, 64) if cosine is None
          else GridDensity.cosine(UNIT, 64, **cosine))
    traj = run(u0, MobilityMapEnergy(f), JkoConfig(tau=tau, n_steps=30, k=64),
               corrupt_steps=corrupt)
    assert_holder_matches_double_loop(traj)


def test_holder_worst_pair_beyond_lag_one():
    # at this tau the first two steps both move far: (0, 2) beats every
    # lag-1 pair, so the answer comes from a pair the screen must keep
    u0 = GridDensity.cosine(UNIT, 64, eps=0.9, k=1)
    traj = run(u0, MobilityMapEnergy(IDENTITY),
               JkoConfig(tau=3e-3, n_steps=30, k=64))
    rep = assert_holder_matches_double_loop(traj)
    assert rep.context["worst_pair"] == (0, 2)


def test_holder_without_steps():
    rep = assert_holder_matches_double_loop(
        map_traj([random_map(np.random.default_rng(0), 16)], [1.0]))
    assert rep.lhs == -np.inf and rep.context["worst_pair"] == (0, 0)


def test_holder_cost_is_linear_on_a_relaxing_run(monkeypatch):
    # 300 thin-film steps toward equilibrium: checking every stamp pair
    # evaluates N (N + 1) / 2 = 45 150 of them, the screen only the N at
    # lag 1
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    traj = run(u0, MobilityMapEnergy(IDENTITY),
               JkoConfig(tau=1e-4, n_steps=300, k=64))
    assert count_holder_pairs(traj, monkeypatch) <= 2 * traj.n_steps


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


def test_entropy_dissipation_fails_on_corruption():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=6, k=128)
    traj = run(u0, MobilityMapEnergy(IDENTITY), cfg, corrupt_steps=(3,))
    reports = thin_film_entropy_dissipation(traj)
    assert not reports[2].passed  # frozen step: no entropy drop, full lhs


# --- discrete weak formulations --------------------------------------------

def weak_setup(n_steps=20, tau=1e-4):
    phi = TestFunction.cosine(0, 1, k=2)
    eta = TemporalWeight.smooth_bump(0.1 * n_steps * tau, 0.8 * n_steps * tau)
    return phi, eta


def test_weak_form_stationary_zero(thin_traj):
    u0 = GridDensity.uniform(UNIT, 64)
    cfg = JkoConfig(tau=1e-4, n_steps=10, k=64)
    traj = run(u0, MobilityMapEnergy(IDENTITY), cfg)
    phi, eta = weak_setup(10)
    rep = check_discrete_weak_f(traj, IDENTITY, phi, eta)
    assert rep.passed and abs(rep.context["mid"]) < 1e-10


def test_weak_form_thin_film(thin_traj):
    phi, eta = weak_setup()
    rep = check_discrete_weak_f(thin_traj, IDENTITY, phi, eta)
    assert rep.passed, rep.context


def test_weak_form_support_must_fit_horizon(thin_traj):
    phi = TestFunction.cosine(0, 1, k=2)
    eta = TemporalWeight.smooth_bump(1e-4, 1.0)
    with pytest.raises(ConfigurationError):
        check_discrete_weak_f(thin_traj, IDENTITY, phi, eta)


def test_weak_form_mobility(mob_traj):
    phi, eta = weak_setup()
    rep = check_discrete_weak_f(mob_traj, MobilitySpec.sqrt_mobility(),
                                phi, eta)
    assert rep.passed, rep.context
    assert rep.context["lower"] <= rep.context["mid"] <= rep.context["upper"]
    # the envelope from its definition, one step at a time
    tau, ent = mob_traj.tau, mob_traj.entropies
    bterm = 1e-3 * sum((abs(eta(n * tau)) - abs(eta((n + 1) * tau))) * ent[n]
                       for n in range(1, mob_traj.n_steps + 1))
    env = 2.0 * phi.sup_d2() * tau * eta.c0_norm * mob_traj.energies[0]
    assert rep.context["lower"] == pytest.approx(-env + bterm, rel=1e-12)
    assert rep.context["upper"] == pytest.approx(env - bterm, rel=1e-12)
    # the tolerance is the rounding bound of mid, from its definition
    f = MobilitySpec.sqrt_mobility()
    states = [GridDensity(UNIT, v) for v in mob_traj.values]
    terms = sum(
        abs(eta(n * tau) - eta((n + 1) * tau))
        * u.h * np.sum(np.abs(u.values * phi.f(u.midpoints)))
        + tau * abs(eta(n * tau)) * u.h * np.sum(np.abs(nf_density(f, u, phi)))
        for n, u in enumerate(states[1:], 1))
    bound = (states[0].m + mob_traj.n_steps + 2) * np.finfo(float).eps * terms
    assert 0 < rep.tolerance == pytest.approx(bound, rel=1e-12, abs=0)


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
    traj.entropies = traj.per_state(
        lambda v: boltzmann_entropy(traj.grid, v))
    delta = dissipation_constants(POWER_02, 1)[1]
    assert all(rep.passed for rep in check_entropy_dissipation_f(
        concave_traj, POWER_02, delta))
    reports = check_entropy_dissipation_f(traj, POWER_02, delta)
    assert [rep.step for rep in reports if not rep.passed] == [25]


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
