"""End-to-end acceptance suite.

Session-scoped fixtures run the scheme once per configuration; each test
then certifies one estimate at its stated tolerance.
"""

import time

import numpy as np
import pytest

from gradflow1d import (GridDensity, Interval, JkoConfig, MobilityMapEnergy,
                        MobilitySpec, TemporalWeight, TestFunction,
                        alpha_window, check_discrete_weak_f,
                        check_energy_monotone, check_entropy_dissipation_f,
                        check_total_square_distance, dissipation_constants,
                        refine_study, run)
from gradflow1d.transport import w2sq_between_maps
from quantiles import wasserstein2

UNIT = Interval(0.0, 1.0)
WIDE = Interval(0.0, 2.0)
SQRT = MobilitySpec.sqrt_mobility()
IDENTITY = MobilitySpec.identity()  # thin film in the mobility class


@pytest.fixture(scope="module")
def thin_run():
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=200, k=256)
    return run(u0, MobilityMapEnergy(IDENTITY), cfg)


@pytest.fixture(scope="module")
def mob_run():
    u0 = GridDensity.cosine(UNIT, 256, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=100, k=256)
    return run(u0, MobilityMapEnergy(SQRT), cfg)


def weak_test_pair():
    phi = TestFunction.cosine(0.0, 2.0, k=4)        # cos(2 pi x) on [0, 2]
    eta = TemporalWeight.smooth_bump(0.002, 0.016)  # inside the 0.02 horizon
    return phi, eta


@pytest.fixture(scope="module")
def weak_runs():
    # same slow-mode initial datum, three halved step sizes, fixed horizon
    u0 = GridDensity.cosine(WIDE, 256, eps=0.5, k=2)
    horizon = 0.02
    out = {}
    for tau in (1e-3, 5e-4, 2.5e-4):
        cfg = JkoConfig(tau=tau, n_steps=int(round(horizon / tau)), k=256)
        out[tau] = run(u0, MobilityMapEnergy(IDENTITY), cfg)
    return out


@pytest.fixture(scope="module")
def mob_weak_run():
    u0 = GridDensity.cosine(WIDE, 256, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-3, n_steps=20, k=256)
    return run(u0, MobilityMapEnergy(SQRT), cfg)


# --- 1: metric axioms at scale ---------------------------------------------

def test_metric_axioms_on_random_pairs():
    rng = np.random.default_rng(0)
    t0 = time.time()
    pool = [GridDensity.from_samples(UNIT, rng.uniform(0.05, 4.0, 128))
            for _ in range(60)]
    dists = {}
    for _ in range(200):
        i, j = rng.integers(0, len(pool), 2)
        d = wasserstein2(pool[i], pool[j])
        assert d >= 0.0
        assert wasserstein2(pool[j], pool[i]) == d  # symmetry, bitwise
        dists[(i, j)] = d
    assert time.time() - t0 < 10.0
    for i in range(0, 20):
        assert wasserstein2(pool[i], pool[i]) == 0.0
    for _ in range(100):
        i, j, k = rng.integers(0, len(pool), 3)
        assert wasserstein2(pool[i], pool[k]) <= \
            wasserstein2(pool[i], pool[j]) + wasserstein2(pool[j], pool[k]) \
            + 1e-8


def test_metric_translation_oracle():
    rng = np.random.default_rng(1)
    base = np.concatenate([rng.uniform(0.5, 2.0, 64), np.zeros(192)])
    u = GridDensity.from_samples(UNIT, base)
    v = GridDensity.from_samples(UNIT, np.roll(base, 64))
    assert wasserstein2(u, v) == pytest.approx(0.25, abs=1e-6)


# --- 2-4: classical trajectory estimates ------------------------------------

def test_energy_monotone_along_trajectory(thin_run):
    reports = check_energy_monotone(thin_run)
    assert len(reports) == 200
    assert all(r.passed for r in reports)
    assert np.all(thin_run.converged)


def test_total_square_distance_bound(thin_run):
    rep = check_total_square_distance(thin_run)
    assert rep.passed, (rep.lhs, rep.rhs)


def test_holder_continuity_in_time(thin_run):
    # W2(u_i, u_j) <= sqrt(2 Phi(u_0) (j - i + 1) tau) for every stamp pair
    pos, e0, tau = thin_run.positions, thin_run.energies[0], thin_run.tau
    for lag in range(1, thin_run.n_steps + 1):
        dist = np.sqrt(w2sq_between_maps(pos[lag:], pos[:-lag]))
        assert np.all(dist < np.sqrt(2.0 * e0 * (lag + 1) * tau)), lag


# --- 5-6: per-step entropy dissipation -------------------------------------

def test_entropy_dissipation_thin_film(thin_run):
    _, delta = dissipation_constants(IDENTITY, 1)
    assert delta == 1.0
    reports = check_entropy_dissipation_f(thin_run, IDENTITY, delta)
    assert all(r.passed for r in reports), \
        min(r.slack for r in reports)


def test_entropy_dissipation_sqrt_mobility(mob_run):
    chi, delta = dissipation_constants(SQRT, 1)
    assert chi == pytest.approx(1.0 / 3.0, abs=1e-14)
    reports = check_entropy_dissipation_f(mob_run, SQRT, delta)
    assert all(r.passed for r in reports), \
        min(r.slack for r in reports)


# --- 7: discrete weak formulations and their tau-scaling ---------------------

def test_discrete_weak_residual_and_scaling(weak_runs):
    phi, eta = weak_test_pair()
    residuals = []
    for tau in (1e-3, 5e-4, 2.5e-4):
        rep = check_discrete_weak_f(weak_runs[tau], IDENTITY, phi, eta)
        assert rep.passed, (tau, rep.context)
        residuals.append(abs(rep.context["mid"]))
    # first-order consistency: halving tau should roughly halve the residual
    for coarse, fine in zip(residuals[:-1], residuals[1:]):
        assert 1.33 <= coarse / fine <= 3.0, residuals


def test_discrete_weak_mobility_sandwich(mob_weak_run):
    phi, eta = weak_test_pair()
    rep = check_discrete_weak_f(mob_weak_run, SQRT, phi, eta)
    assert rep.passed, rep.context
    assert rep.context["lower"] <= rep.context["mid"] <= rep.context["upper"]


# --- 8: pointwise matrix inequality ----------------------------------------

def test_traceless_inequality_randomized(lemma_value):
    rng = np.random.default_rng(7)
    n_total = 0
    for d in range(2, 11):
        n = 100_000 // 9
        B = rng.normal(size=(n, d, d))
        A = 0.5 * (B + np.swapaxes(B, 1, 2))
        tr = np.trace(A, axis1=1, axis2=2) / d
        A -= tr[:, None, None] * np.eye(d)
        v = rng.normal(size=(n, d))
        scale = np.maximum.reduce([np.sum(A * A, axis=(1, 2)),
                                   np.sum(v * v, axis=1) ** 2, np.ones(n)])
        assert np.min(lemma_value(A, v) / scale) >= -1e-12
        n_total += n
    assert n_total >= 99_000


def test_traceless_equality_case(lemma_value):
    # d = 2, A = diag(-1/2, 1/2), v = e1: 1/2 - 1 + 1/2 = 0
    assert lemma_value(np.diag([-0.5, 0.5]), np.array([1.0, 0.0])) == 0.0


# --- 9: admissible exponent windows -----------------------------------------

def test_admissible_exponent_windows():
    assert alpha_window(1) == pytest.approx(0.0, abs=1e-12)
    assert alpha_window(2) == pytest.approx(0.190983, abs=1e-6)


# --- 10: self-convergence under step refinement ------------------------------

def test_refinement_gaps_shrink():
    u0 = GridDensity.cosine(WIDE, 256, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-3, n_steps=20, k=256)
    _, gaps = refine_study(u0, MobilityMapEnergy(IDENTITY), cfg, levels=4)
    assert len(gaps) == 3
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert gaps[2] <= 0.5 * gaps[0], gaps


# --- 11: known answer: linearized decay of a cosine mode --------------------

def _cosine_coefficient(x, k):
    """Exact cos(k pi x) coefficient on [0, 1] of the piecewise-constant
    pushforward of the map with nodes x."""
    u = 1.0 / ((len(x) - 1) * np.diff(x))
    return 2 * np.sum(u * np.diff(np.sin(k * np.pi * x))) / (k * np.pi)


@pytest.mark.parametrize("K", [64, 128, 256])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("f", [MobilitySpec.identity(), SQRT],
                         ids=lambda f: f.name)
def test_cosine_mode_decays_at_implicit_euler_rate(f, k, K):
    # around u = 1 both energies linearize to u_t = -f'(1)^2 u_xxxx, so
    # cos(k pi x) decays at lambda_k = f'(1)^2 (k pi)^4 and one implicit
    # Euler step divides its amplitude by 1 + tau lambda_k
    horizon, n = 2e-3 / k ** 4, 20
    tau = horizon / n
    u0 = GridDensity.cosine(UNIT, K, eps=1e-3, k=k)
    traj = run(u0, MobilityMapEnergy(f), JkoConfig(tau=tau, n_steps=n, k=K))
    a0, an = (_cosine_coefficient(traj.positions[i], k) for i in (0, n))
    rate = np.log(a0 / an) / horizon
    lam = f.f1(1.0) ** 2 * (k * np.pi) ** 4
    assert rate == pytest.approx(np.log1p(tau * lam) / tau, rel=2e-6)


# --- supporting controls -----------------------------------------------------

def test_corruption_is_detected(copied_steps):
    u0 = GridDensity.cosine(UNIT, 128, eps=0.5, k=2)
    cfg = JkoConfig(tau=1e-4, n_steps=8, k=128)
    with copied_steps(4):
        traj = run(u0, MobilityMapEnergy(IDENTITY), cfg)
    reports = check_entropy_dissipation_f(traj, IDENTITY, 1.0)
    assert not all(r.passed for r in reports)
