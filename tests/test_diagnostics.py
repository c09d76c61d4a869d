from dataclasses import replace

import numpy as np
import pytest

from gradflow1d import (ConfigurationError, GridDensity, Interval, JkoConfig,
                        LagrangianSpec, MobilityMapEnergy, MobilitySpec,
                        TemporalWeight, TestFunction, ThinFilmMapEnergy,
                        apriori_bounds, boltzmann_entropy,
                        check_discrete_weak_f, check_entropy_dissipation_f,
                        check_holder_continuity,
                        dissipation_constants,
                        energy, energy_mobility, flow_interchange_dissipation,
                        heat_flow, run, sobolev_norms, traceless_lemma_check)
from gradflow1d.lagrangian import nf_density

UNIT = Interval(0.0, 1.0)
THIN = LagrangianSpec.thin_film()
IDENTITY = MobilitySpec.identity()  # thin film in the mobility class


@pytest.fixture(scope="module")
def thin_traj():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=20, k=128)
    return run(u0, ThinFilmMapEnergy(), cfg)


@pytest.fixture(scope="module")
def mob_traj():
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=20, k=128)
    return run(u0, MobilityMapEnergy(MobilitySpec.sqrt_mobility()), cfg)


# --- sobolev norms ----------------------------------------------------------

def test_sobolev_norm_relations():
    rng = np.random.default_rng(1)
    v = rng.uniform(0.5, 1.5, 64)
    h = 1.0 / 64
    n = sobolev_norms(v, h)
    assert n.h1 >= n.l2
    assert n.h1 ** 2 == pytest.approx(
        n.l2 ** 2 + 2.0 * __import__("gradflow1d").lagrangian
        .staggered_gradient_quadrature(v, h), rel=1e-12)


def test_sobolev_eigenmode_h2():
    m = 2048
    u = GridDensity.cosine(UNIT, m, eps=0.5, k=2)
    n = sobolev_norms(u.values, u.h)
    # ||u''||^2 for 0.5 cos(2 pi x) oscillation: (0.5 (2 pi)^2)^2 / 2
    exact = (0.5 * (2 * np.pi) ** 2) ** 2 / 2
    assert n.h2 ** 2 == pytest.approx(exact, rel=1e-4)


# --- heat flow --------------------------------------------------------------

def test_heat_flow_uniform_stationary():
    u = GridDensity.uniform(UNIT, 64)
    v = heat_flow(u, 0.01)
    np.testing.assert_allclose(v.values, 1.0, atol=1e-12)


def test_heat_flow_zero_time_identity():
    u = GridDensity.cosine(UNIT, 64, eps=0.3, k=1)
    assert heat_flow(u, 0.0) is u
    with pytest.raises(ConfigurationError):
        heat_flow(u, -1e-3)


def test_heat_flow_eigenmode_decay():
    k = 3
    u = GridDensity.cosine(UNIT, 512, eps=0.4, k=k)
    s = 2e-3
    v = heat_flow(u, s)
    expected = 1.0 + 0.4 * np.exp(-(k * np.pi) ** 2 * s) * np.cos(
        k * np.pi * v.midpoints)
    assert np.max(np.abs(v.values - expected)) < 1e-4
    assert abs(v.mass - 1.0) < 1e-12


def test_heat_flow_nonnegative_on_rough_input():
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.0, 1.0, 128) ** 6
    vals[10] = 50.0
    u = GridDensity.from_samples(UNIT, vals + 1e-8)
    v = heat_flow(u, 1e-4)
    assert np.all(v.values >= 0.0)
    assert abs(v.mass - 1.0) < 1e-12


def test_heat_flow_dissipates_entropy():
    u = GridDensity.cosine(UNIT, 128, eps=0.7, k=2)
    ents = [boltzmann_entropy(heat_flow(u, s)) for s in [0.0, 1e-3, 4e-3]]
    assert ents[0] > ents[1] > ents[2] >= -1e-12


# --- flow interchange -------------------------------------------------------

def test_flow_interchange_uniform_zero():
    u = GridDensity.uniform(UNIT, 64)
    assert flow_interchange_dissipation(lambda v: energy(THIN, v), u) == \
        pytest.approx(0.0, abs=1e-10)


def test_flow_interchange_eigenmode_rate():
    # d/ds Phi(heat_flow) at s=0 for a pure mode is -2 (k pi)^2 Phi
    k = 2
    u = GridDensity.cosine(UNIT, 1024, eps=0.3, k=k)
    phi0 = energy(THIN, u)
    q = flow_interchange_dissipation(lambda v: energy(THIN, v), u,
                                     richardson=True)
    assert q == pytest.approx(2 * (k * np.pi) ** 2 * phi0, rel=1e-3)


def test_flow_interchange_dominates_h2():
    u = GridDensity.cosine(UNIT, 1024, eps=0.3, k=2)
    q = flow_interchange_dissipation(lambda v: energy(THIN, v), u,
                                     richardson=True)
    n = sobolev_norms(u.values, u.h)
    assert q >= THIN.gamma * n.h2 ** 2 * (1.0 - 1e-3)


# --- Hoelder continuity -----------------------------------------------------

def holder_double_loop(traj):
    """Reference: every stamp pair in (i, j) order, one distance at a time."""
    e0 = traj.energies[0]
    worst, worst_pair = -np.inf, (0, 0)
    pos = [mp.positions for mp in traj.maps]
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
    return run(u0, ThinFilmMapEnergy(), cfg, corrupt_steps=(4, 5))


@pytest.fixture(scope="module")
def tied_traj(thin_traj):
    """Maps A, A, B, B with a zero bound: the four A-B pairs tie, the first
    in (i, j) order is (0, 2), and lag 1 finds its tie at i = 1 first."""
    a, b = thin_traj.maps[0], thin_traj.maps[-1]
    return replace(thin_traj, states=thin_traj.states[:4], maps=[a, a, b, b],
                   energies=np.zeros(4))


@pytest.mark.parametrize("name", ["thin_traj", "mob_traj", "corrupted_traj",
                                  "tied_traj"])
def test_holder_matches_double_loop(name, request):
    traj = request.getfixturevalue(name)
    rep = check_holder_continuity(traj)
    lhs, pair = holder_double_loop(traj)
    assert np.array_equal(rep.lhs, lhs)  # bitwise
    assert rep.context["worst_pair"] == pair


def test_holder_tie_order(tied_traj):
    assert check_holder_continuity(tied_traj).context["worst_pair"] == (0, 2)


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
    traj = run(u0, ThinFilmMapEnergy(), cfg, corrupt_steps=(3,))
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
    traj = run(u0, ThinFilmMapEnergy(), cfg)
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
    f, states = MobilitySpec.sqrt_mobility(), mob_traj.states
    terms = sum(
        abs(eta(n * tau) - eta((n + 1) * tau))
        * u.h * np.sum(np.abs(u.values * phi.f(u.midpoints)))
        + tau * abs(eta(n * tau)) * u.h * np.sum(np.abs(nf_density(f, u, phi)))
        for n, u in enumerate(states[1:], 1))
    bound = (states[0].m + mob_traj.n_steps + 2) * np.finfo(float).eps * terms
    assert 0 < rep.tolerance == pytest.approx(bound, rel=1e-12, abs=0)


# --- a priori bounds --------------------------------------------------------

def test_apriori_uniform_trajectory():
    u0 = GridDensity.uniform(UNIT, 64)
    cfg = JkoConfig(tau=1e-4, n_steps=5, k=64)
    traj = run(u0, ThinFilmMapEnergy(), cfg)
    rep = apriori_bounds(traj, c_lower=THIN.c)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)  # ||1||_H1 = 1
    assert rep.context["h2_time_integral"] == pytest.approx(0.0, abs=1e-12)


def test_apriori_thin_film(thin_traj):
    rep = apriori_bounds(thin_traj, c_lower=THIN.c)
    assert rep.passed, (rep.lhs, rep.rhs)


def test_apriori_mobility(mob_traj):
    f = MobilitySpec.sqrt_mobility()
    rep = apriori_bounds(mob_traj, c_lower=0.5, transform=f.f)
    assert rep.passed, (rep.lhs, rep.rhs)


# --- algebraic lemmas -------------------------------------------------------

def test_traceless_zero_matrix():
    rep = traceless_lemma_check(np.zeros((3, 3)), np.array([1.0, 2.0, 0.5]))
    assert rep.passed


def test_traceless_equality_case():
    # d = 2, A = diag(-1/2, 1/2), v = e1: value = 1/2 - 1 + 1/2 = 0
    A = np.diag([-0.5, 0.5])
    v = np.array([1.0, 0.0])
    rep = traceless_lemma_check(A, v)
    assert rep.passed
    assert abs(rep.context["value"]) < 1e-14


def test_traceless_preconditions():
    with pytest.raises(ConfigurationError):
        traceless_lemma_check(np.array([[0.0, 1.0], [0.0, 0.0]]),
                              np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        traceless_lemma_check(np.eye(2), np.array([1.0, 0.0]))
